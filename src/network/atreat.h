#ifndef TRIGGERMAN_NETWORK_ATREAT_H_
#define TRIGGERMAN_NETWORK_ATREAT_H_

#include <functional>
#include <memory>
#include <vector>

#include "db/database.h"
#include "expr/compile.h"
#include "expr/condition_graph.h"
#include "expr/eval.h"
#include "network/alpha_memory.h"
#include "predindex/predicate_entry.h"

namespace tman {

/// The A-TREAT discrimination network of one trigger: one alpha node per
/// tuple variable, join condition testing, and a P-node that emits
/// complete variable bindings (rule firings). A variable over a local
/// MiniDB table gets a virtual alpha node, which queries the base table on
/// demand instead of materializing the selection (the memory-saving device
/// that distinguishes A-TREAT from TREAT); a variable over a stream source
/// gets a stored node.
/// Selection predicates are NOT tested on arrival — the shared predicate
/// index performs that selection testing and passes matched tokens to a
/// network node (the nextNetworkNode of §5.1).
///
/// A stored node reads its memory as a view: the entries stored at or
/// after the node's install sequence that pass the node's selection
/// predicate. Build gives each stored node a private memory with install
/// sequence 0; the engine instead backs the nodes of every trigger on a
/// stream source with one shared store (UseStore), so a tuple is stored
/// once however many triggers' selections it passes.
class ATreatNetwork {
 public:
  /// A complete match: one tuple per graph node, aligned with
  /// graph().nodes().
  using FiringFn = std::function<void(const std::vector<Tuple>& bindings)>;
  /// The same match without copies: `row[i]` is graph node i's tuple,
  /// valid for the duration of the call.
  using RowFn = std::function<void(const Tuple* const* row)>;

  /// `schemas` (aligned with graph nodes) supplies each tuple variable's
  /// schema; when empty, schemas are read from the database tables named
  /// by the graph (stream sources then require explicit schemas).
  static Result<std::unique_ptr<ATreatNetwork>> Build(
      const ConditionGraph& graph, Database* db,
      const std::vector<Schema>& schemas = {});

  /// Backs stored node `node` with `store` — a memory other triggers'
  /// nodes may share — seen from install sequence `min_seq` on. Call
  /// before the network is shared between threads.
  void UseStore(NetworkNodeId node, std::shared_ptr<AlphaMemory> store,
                uint64_t min_seq);

  /// Memory maintenance: the tuple passed its node's selection predicate
  /// and must be added to / removed from the node's memory (an add is
  /// stored with the node's install sequence). No-ops for virtual nodes
  /// and single-variable triggers.
  Status AddTuple(NetworkNodeId node, const Tuple& tuple) const;
  Status RemoveTuple(NetworkNodeId node, const Tuple& tuple) const;

  /// Join processing (§5.4): `tuple` arrived at `node` and already passed
  /// selection; enumerate combinations of tuples from the other alpha
  /// nodes satisfying every join predicate and catch-all conjunct, and
  /// call `fn` for each complete binding.
  Status MatchJoins(NetworkNodeId node, const Tuple& tuple,
                    const FiringFn& fn) const;
  /// MatchJoins without copying each binding out of the network.
  Status MatchJoinRows(NetworkNodeId node, const Tuple& tuple,
                       const RowFn& fn) const;

  /// Tests every catch-all conjunct against a complete binding: one tuple
  /// per graph node (a single-variable trigger's token tuple, for one).
  Result<bool> CatchAllSatisfied(const Tuple* const* row) const;

  const ConditionGraph& graph() const { return graph_; }
  size_t num_nodes() const { return graph_.nodes().size(); }
  bool node_stored(NetworkNodeId node) const {
    return nodes_[node].stored;
  }
  const Schema& node_schema(NetworkNodeId node) const {
    return nodes_[node].schema;
  }
  /// The number of tuples node `node`'s view holds (0 for virtual nodes).
  size_t memory_size(NetworkNodeId node) const;

 private:
  struct AlphaNode {
    bool stored = true;
    /// Stored nodes only: the memory the node's view reads.
    std::shared_ptr<AlphaMemory> memory;
    /// The view holds the entries stored at or after this sequence.
    uint64_t min_seq = 0;
    Schema schema;
    /// The node's selection predicate compiled against its schema; null
    /// when there is no predicate, the schema is unknown, or compilation
    /// was refused (eval then falls back to the interpreter).
    std::shared_ptr<const CompiledPredicate> compiled_selection;
  };

  /// One step of an arrival node's enumeration: bind `node`, probing on
  /// its `field` with the value of the already-bound `other` node's
  /// `other_field` when `probe` is set (an equijoin conjunct), scanning
  /// otherwise.
  struct Step {
    size_t node = 0;
    bool probe = false;
    size_t field = 0;
    size_t other = 0;
    size_t other_field = 0;
  };

  ATreatNetwork(ConditionGraph graph, Database* db)
      : graph_(std::move(graph)), db_(db) {}

  /// Compiles selection/join/catch-all predicates once schemas are known.
  void CompilePredicates();

  /// Computes every arrival node's enumeration plan.
  void PlanEnumeration();

  Result<bool> SelectionPasses(size_t node, const Tuple& tuple) const;

  /// Depth-first enumeration over the remaining steps of `plan`.
  Status Enumerate(std::vector<const Tuple*>* bound,
                   const std::vector<Step>& plan, size_t depth,
                   const RowFn& fn) const;

  /// Tests every join edge fully bound by `bound` that involves
  /// `just_bound`.
  Result<bool> EdgesSatisfied(const std::vector<const Tuple*>& bound,
                              size_t just_bound) const;

  Bindings MakeBindings(const std::vector<const Tuple*>& bound) const;

  ConditionGraph graph_;
  Database* db_;
  std::vector<AlphaNode> nodes_;

  /// Per arrival node, the other nodes in binding order: BFS across join
  /// edges keeps every step constrained; disconnected variables
  /// (cartesian) go last.
  std::vector<std::vector<Step>> plans_;

  /// Compiled join conjuncts, aligned with graph_.edges() and each edge's
  /// join_conjuncts; layout is [node a, node b]. Null entries fall back
  /// to the interpreter over full bindings.
  std::vector<std::vector<std::shared_ptr<const CompiledPredicate>>>
      edge_programs_;

  /// Compiled catch-all conjuncts over the full node layout; evaluated
  /// only with every variable bound, so unqualified-name resolution
  /// matches the interpreter exactly.
  std::vector<std::shared_ptr<const CompiledPredicate>> catch_all_programs_;
};

}  // namespace tman

#endif  // TRIGGERMAN_NETWORK_ATREAT_H_
