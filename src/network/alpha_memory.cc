#include "network/alpha_memory.h"

#include <mutex>
#include <unordered_set>

namespace tman {

void AlphaMemory::Insert(const Tuple& tuple, uint64_t seq) {
  auto stored = std::make_shared<const Tuple>(tuple);
  std::unique_lock lock(mutex_);
  size_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = slots_.size();
    slots_.emplace_back();
  }
  slots_[slot] = Entry{std::move(stored), seq};
  ++live_;
  for (auto& [field, index] : indexes_) {
    if (field < tuple.size()) {
      index.emplace(tuple.at(field).Hash(), slot);
    }
  }
}

bool AlphaMemory::Remove(const Tuple& tuple) {
  std::unique_lock lock(mutex_);
  // Locate the equal entry with the highest sequence number — through an
  // index if one covers the tuple, otherwise by scan.
  size_t found = slots_.size();
  auto consider = [&](size_t slot) {
    const Entry& e = slots_[slot];
    if (e.tuple == nullptr || !(*e.tuple == tuple)) return;
    if (found == slots_.size() || e.seq > slots_[found].seq) found = slot;
  };
  auto indexed = indexes_.begin();
  while (indexed != indexes_.end() && indexed->first >= tuple.size()) {
    ++indexed;
  }
  if (indexed != indexes_.end()) {
    auto range =
        indexed->second.equal_range(tuple.at(indexed->first).Hash());
    for (auto it = range.first; it != range.second; ++it) consider(it->second);
  } else {
    for (size_t i = 0; i < slots_.size(); ++i) consider(i);
  }
  if (found == slots_.size()) return false;
  Unhook(found);
  return true;
}

size_t AlphaMemory::RemoveIf(
    const std::function<bool(const Tuple&, uint64_t)>& doomed) {
  // The snapshot keeps every examined tuple alive, so its address names
  // its entry until the removal pass below.
  std::vector<Entry> snapshot;
  {
    std::shared_lock lock(mutex_);
    snapshot.reserve(live_);
    for (const Entry& e : slots_) {
      if (e.tuple != nullptr) snapshot.push_back(e);
    }
  }
  std::unordered_set<const Tuple*> victims;
  for (const Entry& e : snapshot) {
    if (doomed(*e.tuple, e.seq)) victims.insert(e.tuple.get());
  }
  if (victims.empty()) return 0;
  size_t removed = 0;
  std::unique_lock lock(mutex_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].tuple != nullptr && victims.count(slots_[i].tuple.get())) {
      Unhook(i);
      ++removed;
    }
  }
  return removed;
}

void AlphaMemory::Unhook(size_t slot) {
  const Tuple& tuple = *slots_[slot].tuple;
  for (auto& [field, index] : indexes_) {
    if (field >= tuple.size()) continue;
    auto range = index.equal_range(tuple.at(field).Hash());
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == slot) {
        index.erase(it);
        break;
      }
    }
  }
  slots_[slot] = Entry{};
  free_.push_back(slot);
  --live_;
}

void AlphaMemory::Visit(
    const std::vector<std::shared_ptr<const Tuple>>& matches,
    const Visitor& fn) {
  for (const auto& t : matches) {
    if (!fn(*t)) return;
  }
}

void AlphaMemory::ForEach(const Visitor& fn, uint64_t min_seq) const {
  // Snapshot under the lock: visitors may run joins that re-enter this or
  // other memories; holding the lock through user code risks deadlock.
  std::vector<std::shared_ptr<const Tuple>> snapshot;
  {
    std::shared_lock lock(mutex_);
    snapshot.reserve(live_);
    for (const Entry& e : slots_) {
      if (e.tuple != nullptr && e.seq >= min_seq) snapshot.push_back(e.tuple);
    }
  }
  Visit(snapshot, fn);
}

void AlphaMemory::ProbeEqual(size_t field, const Value& value,
                             const Visitor& fn, uint64_t min_seq) const {
  std::vector<std::shared_ptr<const Tuple>> matches;
  auto collect = [&](const FieldIndex& index) {
    auto range = index.equal_range(value.Hash());
    for (auto it = range.first; it != range.second; ++it) {
      const Entry& e = slots_[it->second];
      if (e.seq >= min_seq && field < e.tuple->size() &&
          e.tuple->at(field) == value) {
        matches.push_back(e.tuple);
      }
    }
  };
  bool indexed = false;
  {
    std::shared_lock lock(mutex_);
    auto it = indexes_.find(field);
    if (it != indexes_.end()) {
      collect(it->second);
      indexed = true;
    }
  }
  if (!indexed) {
    std::unique_lock lock(mutex_);
    collect(EnsureIndex(field));
  }
  Visit(matches, fn);
}

size_t AlphaMemory::size() const {
  std::shared_lock lock(mutex_);
  return live_;
}

const AlphaMemory::FieldIndex& AlphaMemory::EnsureIndex(size_t field) const {
  auto [it, created] = indexes_.try_emplace(field);
  if (created) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      const Entry& e = slots_[i];
      if (e.tuple != nullptr && field < e.tuple->size()) {
        it->second.emplace(e.tuple->at(field).Hash(), i);
      }
    }
  }
  return it->second;
}

}  // namespace tman
