#include "network/atreat.h"

#include <algorithm>

#include "expr/eval.h"

namespace tman {

Result<std::unique_ptr<ATreatNetwork>> ATreatNetwork::Build(
    const ConditionGraph& graph, Database* db,
    const std::vector<Schema>& schemas) {
  if (!schemas.empty() && schemas.size() != graph.nodes().size()) {
    return Status::InvalidArgument(
        "schema count does not match condition graph nodes");
  }
  std::unique_ptr<ATreatNetwork> net(new ATreatNetwork(graph, db));
  net->nodes_.resize(graph.nodes().size());
  bool multi = graph.nodes().size() > 1;
  for (size_t i = 0; i < graph.nodes().size(); ++i) {
    const ConditionGraph::Node& gnode = graph.nodes()[i];
    AlphaNode& anode = net->nodes_[i];
    bool local_table =
        db != nullptr && db->HasTable(gnode.info.source_name);
    if (!schemas.empty()) {
      anode.schema = schemas[i];
    } else if (local_table) {
      TMAN_ASSIGN_OR_RETURN(anode.schema, db->SchemaOf(gnode.info.source_name));
    }
    // Single-variable triggers need no memories at all: the predicate
    // index decides everything and the token itself is the firing. A
    // local table backs a virtual alpha node (A-TREAT).
    anode.stored = multi && !local_table;
    if (anode.stored) anode.memory = std::make_shared<AlphaMemory>();
  }
  net->CompilePredicates();
  net->PlanEnumeration();
  return net;
}

void ATreatNetwork::UseStore(NetworkNodeId node,
                             std::shared_ptr<AlphaMemory> store,
                             uint64_t min_seq) {
  AlphaNode& anode = nodes_[node];
  if (!anode.stored) return;
  anode.memory = std::move(store);
  anode.min_seq = min_seq;
}

void ATreatNetwork::CompilePredicates() {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    ExprPtr selection = graph_.nodes()[i].SelectionPredicate();
    if (selection == nullptr) continue;
    BindingLayout layout;
    layout.Add(graph_.nodes()[i].info.var, &nodes_[i].schema);
    nodes_[i].compiled_selection = TryCompilePredicate(selection, layout);
  }

  edge_programs_.resize(graph_.edges().size());
  for (size_t ei = 0; ei < graph_.edges().size(); ++ei) {
    const ConditionGraph::Edge& e = graph_.edges()[ei];
    BindingLayout layout;
    layout.Add(graph_.nodes()[e.a].info.var, &nodes_[e.a].schema);
    layout.Add(graph_.nodes()[e.b].info.var, &nodes_[e.b].schema);
    for (const ExprPtr& conjunct : e.join_conjuncts) {
      // An unqualified reference resolved against just these two schemas
      // could dodge an ambiguity the interpreter would report over the
      // full binding set — leave those to the interpreter.
      bool unqualified = false;
      for (const std::string& v : ReferencedTupleVars(conjunct)) {
        if (v.empty()) unqualified = true;
      }
      edge_programs_[ei].push_back(
          unqualified ? nullptr : TryCompilePredicate(conjunct, layout));
    }
  }

  if (!graph_.catch_all().empty()) {
    BindingLayout full;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      full.Add(graph_.nodes()[i].info.var, &nodes_[i].schema);
    }
    for (const ExprPtr& conjunct : graph_.catch_all()) {
      catch_all_programs_.push_back(TryCompilePredicate(conjunct, full));
    }
  }
}

void ATreatNetwork::PlanEnumeration() {
  const size_t n = nodes_.size();
  plans_.assign(n, {});
  for (size_t arrival = 0; arrival < n; ++arrival) {
    std::vector<size_t> queue{arrival};
    std::vector<bool> seen(n, false);
    seen[arrival] = true;
    for (size_t q = 0; q < queue.size(); ++q) {
      for (const ConditionGraph::Edge& e : graph_.edges()) {
        if (e.a != queue[q] && e.b != queue[q]) continue;
        size_t w = e.a == queue[q] ? e.b : e.a;
        if (!seen[w]) {
          seen[w] = true;
          queue.push_back(w);
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (!seen[i]) queue.push_back(i);
    }
    // Each step probes through the first equijoin conjunct `v.f ==
    // other.g` that links it to an already-bound node.
    std::vector<bool> bound(n, false);
    bound[arrival] = true;
    for (size_t k = 1; k < queue.size(); ++k) {
      Step step;
      step.node = queue[k];
      const std::string& var = graph_.nodes()[step.node].info.var;
      for (const ConditionGraph::Edge& e : graph_.edges()) {
        if (step.probe) break;
        if (e.a != step.node && e.b != step.node) continue;
        size_t other = e.a == step.node ? e.b : e.a;
        if (!bound[other]) continue;
        const std::string& other_var = graph_.nodes()[other].info.var;
        for (const ExprPtr& c : e.join_conjuncts) {
          if (c->kind != ExprKind::kBinaryOp || c->bin_op != BinOp::kEq) {
            continue;
          }
          const ExprPtr& l = c->children[0];
          const ExprPtr& r = c->children[1];
          if (l->kind != ExprKind::kColumnRef ||
              r->kind != ExprKind::kColumnRef) {
            continue;
          }
          const Expr* mine = nullptr;
          const Expr* theirs = nullptr;
          if (l->tuple_var == var && r->tuple_var == other_var) {
            mine = l.get();
            theirs = r.get();
          } else if (r->tuple_var == var && l->tuple_var == other_var) {
            mine = r.get();
            theirs = l.get();
          } else {
            continue;
          }
          int my_field = nodes_[step.node].schema.FieldIndex(mine->attribute);
          int their_field = nodes_[other].schema.FieldIndex(theirs->attribute);
          if (my_field < 0 || their_field < 0) continue;
          step.probe = true;
          step.field = static_cast<size_t>(my_field);
          step.other = other;
          step.other_field = static_cast<size_t>(their_field);
          break;
        }
      }
      bound[step.node] = true;
      plans_[arrival].push_back(step);
    }
  }
}

Result<bool> ATreatNetwork::SelectionPasses(size_t node,
                                            const Tuple& tuple) const {
  const AlphaNode& anode = nodes_[node];
  if (anode.compiled_selection != nullptr) {
    const Tuple* tuples[] = {&tuple};
    return anode.compiled_selection->EvalBool(tuples, 1);
  }
  const ConditionGraph::Node& gnode = graph_.nodes()[node];
  if (gnode.selection_conjuncts.empty()) return true;
  Bindings b;
  b.Bind(gnode.info.var, &anode.schema, &tuple);
  return EvalPredicate(gnode.SelectionPredicate(), b);
}

Status ATreatNetwork::AddTuple(NetworkNodeId node, const Tuple& tuple) const {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("bad network node id");
  }
  const AlphaNode& anode = nodes_[node];
  if (anode.stored) anode.memory->Insert(tuple, anode.min_seq);
  return Status::OK();
}

Status ATreatNetwork::RemoveTuple(NetworkNodeId node, const Tuple& tuple) const {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("bad network node id");
  }
  if (nodes_[node].stored) nodes_[node].memory->Remove(tuple);
  return Status::OK();
}

size_t ATreatNetwork::memory_size(NetworkNodeId node) const {
  const AlphaNode& anode = nodes_[node];
  if (!anode.stored) return 0;
  size_t n = 0;
  anode.memory->ForEach(
      [&](const Tuple& t) {
        Result<bool> pass = SelectionPasses(node, t);
        if (pass.ok() && *pass) ++n;
        return true;
      },
      anode.min_seq);
  return n;
}

Bindings ATreatNetwork::MakeBindings(
    const std::vector<const Tuple*>& bound) const {
  Bindings b;
  for (size_t i = 0; i < bound.size(); ++i) {
    if (bound[i] != nullptr) {
      b.Bind(graph_.nodes()[i].info.var, &nodes_[i].schema, bound[i]);
    }
  }
  return b;
}

Result<bool> ATreatNetwork::EdgesSatisfied(
    const std::vector<const Tuple*>& bound, size_t just_bound) const {
  for (size_t ei = 0; ei < graph_.edges().size(); ++ei) {
    const ConditionGraph::Edge& e = graph_.edges()[ei];
    if (e.a != just_bound && e.b != just_bound) continue;
    size_t other = e.a == just_bound ? e.b : e.a;
    if (bound[other] == nullptr) continue;
    const Tuple* pair[2] = {bound[e.a], bound[e.b]};
    for (size_t ci = 0; ci < e.join_conjuncts.size(); ++ci) {
      const CompiledPredicate* prog = edge_programs_[ei][ci].get();
      if (prog != nullptr) {
        TMAN_ASSIGN_OR_RETURN(bool pass, prog->EvalBool(pair, 2));
        if (!pass) return false;
      } else {
        Bindings b = MakeBindings(bound);
        TMAN_ASSIGN_OR_RETURN(bool pass,
                              EvalPredicate(e.join_conjuncts[ci], b));
        if (!pass) return false;
      }
    }
  }
  return true;
}

Result<bool> ATreatNetwork::CatchAllSatisfied(const Tuple* const* row) const {
  for (size_t ci = 0; ci < graph_.catch_all().size(); ++ci) {
    if (const CompiledPredicate* prog = catch_all_programs_[ci].get()) {
      TMAN_ASSIGN_OR_RETURN(bool pass, prog->EvalBool(row, nodes_.size()));
      if (!pass) return false;
      continue;
    }
    Bindings b;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      b.Bind(graph_.nodes()[i].info.var, &nodes_[i].schema, row[i]);
    }
    TMAN_ASSIGN_OR_RETURN(bool pass, EvalPredicate(graph_.catch_all()[ci], b));
    if (!pass) return false;
  }
  return true;
}

Status ATreatNetwork::Enumerate(std::vector<const Tuple*>* bound,
                                const std::vector<Step>& plan, size_t depth,
                                const RowFn& fn) const {
  if (depth == plan.size()) {
    // Every variable is bound here.
    if (!graph_.catch_all().empty()) {
      TMAN_ASSIGN_OR_RETURN(bool pass, CatchAllSatisfied(bound->data()));
      if (!pass) return Status::OK();
    }
    fn(bound->data());
    return Status::OK();
  }

  const Step& step = plan[depth];
  const size_t v = step.node;
  const ConditionGraph::Node& gnode = graph_.nodes()[v];
  const AlphaNode& anode = nodes_[v];
  const Value* probe =
      step.probe ? &(*bound)[step.other]->at(step.other_field) : nullptr;

  Status inner = Status::OK();
  auto consider = [&](const Tuple& candidate) -> bool {
    if (probe != nullptr &&
        (step.field >= candidate.size() || candidate.at(step.field) != *probe)) {
      return true;
    }
    // A stored view and a base table both hold tuples outside this
    // node's selection.
    Result<bool> selected = SelectionPasses(v, candidate);
    if (!selected.ok()) {
      inner = selected.status();
      return false;
    }
    if (!*selected) return true;
    (*bound)[v] = &candidate;
    Result<bool> pass = EdgesSatisfied(*bound, v);
    Status s = pass.status();
    if (s.ok() && *pass) s = Enumerate(bound, plan, depth + 1, fn);
    (*bound)[v] = nullptr;
    if (!s.ok()) {
      inner = s;
      return false;
    }
    return true;
  };

  if (anode.stored) {
    if (probe != nullptr) {
      anode.memory->ProbeEqual(step.field, *probe, consider, anode.min_seq);
    } else {
      anode.memory->ForEach(consider, anode.min_seq);
    }
    return inner;
  }

  // Virtual alpha node: enumerate the base table. If the table has an
  // index on the equijoin probe attribute, probe it instead of scanning —
  // the paper's "data values ... can be processed by a query" run through
  // the host's query machinery.
  if (db_ == nullptr || !db_->HasTable(gnode.info.source_name)) {
    return Status::Internal("virtual alpha node without a backing table: " +
                            gnode.info.source_name);
  }
  if (probe != nullptr && step.field < anode.schema.num_fields()) {
    auto idx = db_->FindIndexOn(gnode.info.source_name,
                                {anode.schema.field(step.field).name});
    if (idx.ok()) {
      auto rids = db_->IndexLookup(*idx, {*probe});
      if (!rids.ok()) return rids.status();
      for (const Rid& rid : *rids) {
        auto t = db_->Get(gnode.info.source_name, rid);
        if (!t.ok()) return t.status();
        if (!consider(*t)) break;
      }
      return inner;
    }
  }
  TMAN_RETURN_IF_ERROR(
      db_->Scan(gnode.info.source_name,
                [&](const Rid&, const Tuple& t) { return consider(t); }));
  return inner;
}

Status ATreatNetwork::MatchJoinRows(NetworkNodeId node, const Tuple& tuple,
                                    const RowFn& fn) const {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("bad network node id");
  }
  std::vector<const Tuple*> bound(nodes_.size(), nullptr);
  bound[node] = &tuple;
  return Enumerate(&bound, plans_[node], 0, fn);
}

Status ATreatNetwork::MatchJoins(NetworkNodeId node, const Tuple& tuple,
                                 const FiringFn& fn) const {
  std::vector<Tuple> firing;
  return MatchJoinRows(node, tuple, [&](const Tuple* const* row) {
    firing.clear();
    for (size_t i = 0; i < nodes_.size(); ++i) firing.push_back(*row[i]);
    fn(firing);
  });
}

}  // namespace tman
