#ifndef TRIGGERMAN_CORE_ACTIONS_H_
#define TRIGGERMAN_CORE_ACTIONS_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/events.h"
#include "core/trigger.h"
#include "db/database.h"

namespace tman {

/// Everything an action needs about the firing that triggered it: the
/// trigger, the complete variable bindings from the P-node (one tuple per
/// condition graph node, in node order), the token that caused the
/// firing, and the node where it arrived (for :OLD references). The
/// context only points at the firing's tuples and token, so building one
/// copies nothing; an action that runs after the firing returns holds an
/// OwnedActionContext instead.
struct ActionContext {
  const TriggerRuntime* trigger = nullptr;
  const Tuple* const* bindings = nullptr;
  const UpdateDescriptor* token = nullptr;
  NetworkNodeId arrival_node = 0;
};

/// An ActionContext over copies of the firing's bindings and token that
/// it owns, plus a pin on the trigger: the storage of an action queued as
/// its own task (rule-action concurrency), which outlives the firing.
class OwnedActionContext {
 public:
  OwnedActionContext(std::shared_ptr<const TriggerRuntime> trigger,
                     const ActionContext& ctx);

  OwnedActionContext(const OwnedActionContext&) = delete;
  OwnedActionContext& operator=(const OwnedActionContext&) = delete;

  const ActionContext& context() const { return ctx_; }

 private:
  std::shared_ptr<const TriggerRuntime> trigger_;
  std::vector<Tuple> tuples_;
  std::vector<const Tuple*> bindings_;
  UpdateDescriptor token_;
  ActionContext ctx_;
};

/// Compiles the trigger's `raise event` arguments against its node layout
/// into `trigger->compiled_args`. Aggregate triggers and execSQL actions
/// get none: their arguments are substituted per firing.
void CompileActionArgs(TriggerRuntime* trigger);

struct ActionStats {
  uint64_t actions_executed = 0;
  uint64_t sql_statements = 0;
  uint64_t events_raised = 0;
  uint64_t action_errors = 0;
};

/// Executes trigger actions: `execSQL` statements (with :NEW/:OLD macro
/// substitution, §2: "values matching the trigger condition are
/// substituted into the trigger action using macro substitution") against
/// MiniDB, and `raise event` notifications through the EventManager.
class ActionExecutor {
 public:
  ActionExecutor(Database* db, EventManager* events)
      : db_(db), events_(events) {}

  /// Executes the trigger's own action; `raise event` arguments run
  /// through the trigger's compiled programs where it has them.
  Status Execute(const ActionContext& ctx);

  /// Executes with an explicit action spec (aggregate triggers substitute
  /// group values into the action arguments before execution). Arguments
  /// go through the interpreter.
  Status ExecuteSpec(const ActionContext& ctx, const ActionSpec& action);

  /// Substitutes :NEW.var.attr / :OLD.var.attr (and unqualified
  /// :NEW.attr) macros with SQL literals from the firing's bindings.
  /// Exposed for tests.
  Result<std::string> SubstituteMacros(const std::string& sql,
                                       const ActionContext& ctx) const;

  ActionStats stats() const;

 private:
  Status Run(const ActionContext& ctx, const ActionSpec& action,
             const std::vector<std::shared_ptr<const CompiledPredicate>>*
                 compiled_args);

  Result<Value> ResolveMacro(bool is_new, const std::string& var,
                             const std::string& attr,
                             const ActionContext& ctx) const;

  Database* db_;
  EventManager* events_;
  mutable std::atomic<uint64_t> actions_{0};
  mutable std::atomic<uint64_t> sql_{0};
  mutable std::atomic<uint64_t> raised_{0};
  mutable std::atomic<uint64_t> errors_{0};
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_ACTIONS_H_
