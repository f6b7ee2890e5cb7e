#ifndef TRIGGERMAN_PREDINDEX_ORGANIZATION_H_
#define TRIGGERMAN_PREDINDEX_ORGANIZATION_H_

#include <functional>
#include <memory>
#include <string>

#include "expr/signature.h"
#include "predindex/predicate_entry.h"
#include "util/result.h"

namespace tman {

class Database;

/// The paper's four ways to organize the predicates in an expression
/// signature's equivalence class (§5.2). Numbers match the paper.
enum class OrgType {
  kMemoryList = 1,      // main memory list
  kMemoryIndex = 2,     // main memory index (hash / interval index)
  kDbTable = 3,         // non-indexed database table
  kDbIndexedTable = 4,  // indexed database table (clustered composite key)
};

std::string_view OrgTypeName(OrgType type);

/// Immutable per-signature context shared by an organization: the
/// signature, its indexable split, and the constant-table naming.
struct SignatureContext {
  ExpressionSignature signature;
  IndexableSplit split;
  uint64_t sig_id = 0;

  /// Name of the constant table for DB-backed organizations
  /// ("const_table_<sigID>", the paper's const_tableN).
  std::string ConstTableName() const {
    return "const_table_" + std::to_string(sig_id);
  }
};

/// Storage + probe structure for one signature's constant set and the
/// triggerID sets hanging off it (Figures 3 and 4). Implementations are
/// not internally synchronized; DataSourcePredicateIndex serializes
/// mutations and uses a read lock for matching.
class ConstantSetOrganization {
 public:
  virtual ~ConstantSetOrganization() = default;

  virtual OrgType type() const = 0;

  /// Adds one predicate instance (one constant-table row).
  virtual Status Insert(const PredicateEntry& entry) = 0;

  /// Removes the predicate instance with `expr_id`.
  virtual Status Remove(ExprId expr_id) = 0;

  /// Streams every entry whose constants match the probe (equality key
  /// and/or stabbing value per the signature's indexable split). Entries
  /// are *candidates*: the caller still tests rest-of-predicate.
  virtual Status Match(
      const Probe& probe,
      const std::function<void(const PredicateEntry&)>& fn) const = 0;

  /// Streams all entries (used when migrating between organizations).
  virtual Status ForEach(
      const std::function<void(const PredicateEntry&)>& fn) const = 0;

  /// Number of stored predicate instances.
  virtual size_t size() const = 0;

  /// Partitioned matching for condition-level concurrency (Figure 5):
  /// only entries assigned to `partition` (of `num_partitions`, round
  /// robin by trigger id) are reported. The default filters Match.
  virtual Status MatchPartition(
      const Probe& probe, uint32_t partition, uint32_t num_partitions,
      const std::function<void(const PredicateEntry&)>& fn) const;
};

/// Factory. DB-backed organizations require `db` (and create or adopt the
/// signature's constant table); memory organizations ignore it.
Result<std::unique_ptr<ConstantSetOrganization>> CreateOrganization(
    OrgType type, const SignatureContext* ctx, Database* db);

}  // namespace tman

#endif  // TRIGGERMAN_PREDINDEX_ORGANIZATION_H_
