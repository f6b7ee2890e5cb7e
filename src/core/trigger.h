#ifndef TRIGGERMAN_CORE_TRIGGER_H_
#define TRIGGERMAN_CORE_TRIGGER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregates.h"
#include "expr/compile.h"
#include "expr/condition_graph.h"
#include "network/atreat.h"
#include "parser/ast.h"
#include "predindex/predicate_entry.h"

namespace tman {

/// Enabled state of one trigger and of its trigger set. The manager's
/// bookkeeping and every TriggerRuntime built for the trigger (including
/// one reloaded after cache eviction) share the same object, so disable
/// and drop take effect on runtimes that are already pinned, and the fire
/// path reads the state with two atomic loads and no lock.
struct TriggerFlags {
  std::atomic<bool> enabled{true};
  /// Shared by every trigger of the set; never null.
  std::shared_ptr<std::atomic<bool>> set_enabled;

  bool active() const {
    return enabled.load(std::memory_order_acquire) &&
           set_enabled->load(std::memory_order_acquire);
  }
};

/// The complete description of one trigger as kept in the trigger cache
/// (§5.1): identity, parsed syntax tree, condition graph, A-TREAT network
/// skeleton, and the action. Instances are shared immutably through
/// TriggerHandle (the pin); alpha memories inside the network are
/// internally synchronized so concurrent token processing is safe.
struct TriggerRuntime {
  TriggerId id = 0;
  uint64_t ts_id = 0;
  std::string name;   // lowercase
  std::string text;   // original create trigger statement

  CreateTriggerCmd cmd;          // parsed syntax tree
  ConditionGraph graph;          // condition graph (§5.1 step 3)
  std::unique_ptr<ATreatNetwork> network;  // step 4

  /// Enabled state (see TriggerFlags). The manager sets it before it
  /// publishes the runtime; nothing else reads it.
  std::shared_ptr<TriggerFlags> flags;

  /// Group-by state of an aggregate trigger. It lives with the manager's
  /// bookkeeping, not the cache, so eviction cannot drop group counters;
  /// a reloaded runtime gets the same object.
  std::shared_ptr<GroupByEvaluator> aggregate;

  /// `raise event` arguments compiled once against the node layout (one
  /// slot per graph node), aligned with cmd.action.event_args. Empty, or a
  /// null entry for an argument the compiler refused, means the action
  /// executor interprets that argument.
  std::vector<std::shared_ptr<const CompiledPredicate>> compiled_args;

  bool multi_variable() const { return graph.nodes().size() > 1; }
  bool is_aggregate() const { return !cmd.group_by.empty(); }
  bool enabled() const { return flags->active(); }
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_TRIGGER_H_
