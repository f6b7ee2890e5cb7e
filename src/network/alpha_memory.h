#ifndef TRIGGERMAN_NETWORK_ALPHA_MEMORY_H_
#define TRIGGERMAN_NETWORK_ALPHA_MEMORY_H_

#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "types/tuple.h"

namespace tman {

/// A stored alpha memory of an A-TREAT network: a multiset of tuples from
/// one data source. Each entry carries the maintenance sequence number it
/// was stored with, so one memory can back the stored nodes of many
/// triggers (the engine keeps one per stream source and condition
/// partition): a node reads it as a view of the entries stored at or
/// after its own install sequence. Supports equality probes on a field
/// through lazily built hash indexes (used for equijoin conjuncts).
///
/// Thread-safe: concurrent token processing may read while another token
/// mutates (token-level concurrency, §6). Visitors run without the lock
/// held, over a snapshot of the matching entries.
class AlphaMemory {
 public:
  /// Visits one stored tuple; returning false stops the visit.
  using Visitor = std::function<bool(const Tuple&)>;

  AlphaMemory() = default;

  AlphaMemory(const AlphaMemory&) = delete;
  AlphaMemory& operator=(const AlphaMemory&) = delete;

  void Insert(const Tuple& tuple, uint64_t seq = 0);

  /// Removes one entry equal to `tuple`: the one stored last (highest
  /// sequence number), so every view loses the copy it saw last. Returns
  /// false if absent.
  bool Remove(const Tuple& tuple);

  /// Removes every entry for which `doomed(tuple, seq)` holds; returns the
  /// number removed. `doomed` runs without the lock held (it may probe
  /// other structures); entries stored meanwhile are kept.
  size_t RemoveIf(const std::function<bool(const Tuple&, uint64_t)>& doomed);

  /// Visits every entry stored with a sequence number >= `min_seq`.
  void ForEach(const Visitor& fn, uint64_t min_seq = 0) const;

  /// Visits the entries stored with a sequence number >= `min_seq` whose
  /// `field` equals `value`, via a hash index built on first use for that
  /// field.
  void ProbeEqual(size_t field, const Value& value, const Visitor& fn,
                  uint64_t min_seq = 0) const;

  /// Physical entry count, across every view.
  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const Tuple> tuple;  // null: free slot
    uint64_t seq = 0;
  };
  // field -> (value hash -> slot indices)
  using FieldIndex = std::unordered_multimap<uint64_t, size_t>;

  /// The index on `field`, built first if missing. Requires the lock held
  /// exclusively.
  const FieldIndex& EnsureIndex(size_t field) const;
  void Unhook(size_t slot);  // requires the lock held exclusively

  static void Visit(const std::vector<std::shared_ptr<const Tuple>>& matches,
                    const Visitor& fn);

  mutable std::shared_mutex mutex_;
  std::vector<Entry> slots_;
  std::vector<size_t> free_;
  size_t live_ = 0;
  mutable std::unordered_map<size_t, FieldIndex> indexes_;
};

}  // namespace tman

#endif  // TRIGGERMAN_NETWORK_ALPHA_MEMORY_H_
