#include "core/actions.h"

#include <cctype>
#include <optional>

#include "db/sql.h"
#include "expr/eval.h"
#include "util/string_util.h"

namespace tman {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Reads an identifier starting at `pos`; advances past it.
std::string ReadIdent(const std::string& s, size_t* pos) {
  size_t start = *pos;
  while (*pos < s.size() && IsIdentChar(s[*pos])) ++*pos;
  return s.substr(start, *pos - start);
}

/// Binds every graph node's variable to its schema and tuple, for the
/// interpreter.
Bindings NodeBindings(const ActionContext& ctx) {
  Bindings b;
  const auto& nodes = ctx.trigger->graph.nodes();
  for (size_t i = 0; i < nodes.size(); ++i) {
    b.Bind(nodes[i].info.var, &ctx.trigger->network->node_schema(i),
           ctx.bindings[i]);
  }
  return b;
}

}  // namespace

OwnedActionContext::OwnedActionContext(
    std::shared_ptr<const TriggerRuntime> trigger, const ActionContext& ctx)
    : trigger_(std::move(trigger)), token_(*ctx.token) {
  const size_t n = trigger_->graph.nodes().size();
  tuples_.reserve(n);
  for (size_t i = 0; i < n; ++i) tuples_.push_back(*ctx.bindings[i]);
  bindings_.reserve(n);
  for (const Tuple& t : tuples_) bindings_.push_back(&t);
  ctx_.trigger = trigger_.get();
  ctx_.bindings = bindings_.data();
  ctx_.token = &token_;
  ctx_.arrival_node = ctx.arrival_node;
}

void CompileActionArgs(TriggerRuntime* trigger) {
  trigger->compiled_args.clear();
  const ActionSpec& action = trigger->cmd.action;
  if (action.kind != ActionKind::kRaiseEvent || trigger->is_aggregate()) {
    return;
  }
  BindingLayout layout;
  const auto& nodes = trigger->graph.nodes();
  for (size_t i = 0; i < nodes.size(); ++i) {
    layout.Add(nodes[i].info.var, &trigger->network->node_schema(i));
  }
  for (const ExprPtr& arg : action.event_args) {
    trigger->compiled_args.push_back(TryCompilePredicate(arg, layout));
  }
}

Result<Value> ActionExecutor::ResolveMacro(bool is_new, const std::string& var,
                                           const std::string& attr,
                                           const ActionContext& ctx) const {
  const TriggerRuntime* t = ctx.trigger;
  const auto& nodes = t->graph.nodes();

  if (!is_new) {
    // :OLD refers to the pre-update image, which only exists for the
    // token's own tuple variable.
    const std::string& arrival_var = nodes[ctx.arrival_node].info.var;
    if (!var.empty() && !EqualsIgnoreCase(var, arrival_var)) {
      return Status::InvalidArgument(
          ":OLD." + var + " does not name the updated tuple variable (" +
          arrival_var + ")");
    }
    if (!ctx.token->old_tuple.has_value()) {
      return Status::InvalidArgument(
          ":OLD reference in a trigger fired by an insert");
    }
    const Schema& schema = t->network->node_schema(ctx.arrival_node);
    TMAN_ASSIGN_OR_RETURN(size_t f, schema.RequireField(attr));
    return ctx.token->old_tuple->at(f);
  }

  // :NEW — qualified: the named variable's binding; unqualified: the
  // unique binding that has the attribute.
  return NodeBindings(ctx).Lookup(ToLower(var), ToLower(attr));
}

Result<std::string> ActionExecutor::SubstituteMacros(
    const std::string& sql, const ActionContext& ctx) const {
  std::string out;
  out.reserve(sql.size());
  size_t pos = 0;
  while (pos < sql.size()) {
    char c = sql[pos];
    if (c != ':') {
      out.push_back(c);
      ++pos;
      continue;
    }
    size_t save = pos;
    ++pos;
    std::string kind = ReadIdent(sql, &pos);
    bool is_new = EqualsIgnoreCase(kind, "new");
    bool is_old = EqualsIgnoreCase(kind, "old");
    if ((!is_new && !is_old) || pos >= sql.size() || sql[pos] != '.') {
      out.push_back(':');
      pos = save + 1;
      continue;
    }
    ++pos;  // '.'
    std::string first = ReadIdent(sql, &pos);
    std::string var;
    std::string attr = first;
    if (pos < sql.size() && sql[pos] == '.' && pos + 1 < sql.size() &&
        IsIdentChar(sql[pos + 1])) {
      size_t dot = pos;
      ++pos;
      std::string second = ReadIdent(sql, &pos);
      // ":NEW.emp.salary": emp is the variable — but only when "emp"
      // actually names one; otherwise back off to the one-part form
      // (e.g. ":NEW.salary.x" in "salary.x" table-qualified SQL).
      bool known_var = false;
      for (const auto& n : ctx.trigger->graph.nodes()) {
        if (EqualsIgnoreCase(n.info.var, first) ||
            EqualsIgnoreCase(n.info.source_name, first)) {
          known_var = true;
          break;
        }
      }
      if (known_var) {
        var = first;
        attr = second;
      } else {
        pos = dot;  // rewind: treat as :NEW.attr
      }
    }
    TMAN_ASSIGN_OR_RETURN(Value v, ResolveMacro(is_new, var, attr, ctx));
    out += v.ToString();
  }
  return out;
}

Status ActionExecutor::Execute(const ActionContext& ctx) {
  return Run(ctx, ctx.trigger->cmd.action, &ctx.trigger->compiled_args);
}

Status ActionExecutor::ExecuteSpec(const ActionContext& ctx,
                                   const ActionSpec& action) {
  return Run(ctx, action, nullptr);
}

Status ActionExecutor::Run(
    const ActionContext& ctx, const ActionSpec& action,
    const std::vector<std::shared_ptr<const CompiledPredicate>>*
        compiled_args) {
  actions_.fetch_add(1, std::memory_order_relaxed);
  if (action.kind == ActionKind::kExecSql) {
    TMAN_ASSIGN_OR_RETURN(std::string sql,
                          SubstituteMacros(action.sql, ctx));
    auto result = ExecuteSql(db_, sql);
    if (!result.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return result.status();
    }
    sql_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  // raise event
  const size_t num_nodes = ctx.trigger->graph.nodes().size();
  std::optional<Bindings> interpreted;  // built only for a fallback
  Event event;
  event.name = action.event_name;
  event.args.reserve(action.event_args.size());
  for (size_t i = 0; i < action.event_args.size(); ++i) {
    const CompiledPredicate* program =
        compiled_args != nullptr && i < compiled_args->size()
            ? (*compiled_args)[i].get()
            : nullptr;
    Result<Value> v = Value::Null();
    if (program != nullptr) {
      v = program->EvalValue(ctx.bindings, num_nodes);
    } else {
      if (!interpreted.has_value()) interpreted = NodeBindings(ctx);
      v = EvalExpr(action.event_args[i], *interpreted);
    }
    if (!v.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return v.status();
    }
    event.args.push_back(std::move(*v));
  }
  events_->Raise(std::move(event));
  raised_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

ActionStats ActionExecutor::stats() const {
  ActionStats st;
  st.actions_executed = actions_.load(std::memory_order_relaxed);
  st.sql_statements = sql_.load(std::memory_order_relaxed);
  st.events_raised = raised_.load(std::memory_order_relaxed);
  st.action_errors = errors_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace tman
