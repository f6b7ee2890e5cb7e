#ifndef TRIGGERMAN_CORE_EVENTS_H_
#define TRIGGERMAN_CORE_EVENTS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "types/value.h"

namespace tman {

/// One raised event: name plus evaluated argument values.
struct Event {
  std::string name;
  std::vector<Value> args;

  std::string ToString() const;
};

/// Callback of a client application registered for an event. Consumers
/// run on the thread that executed the trigger action.
using EventConsumer = std::function<void(const Event&)>;

/// The `raise event` subsystem ([Hans98]'s client/server event
/// notification, reduced to its in-process essentials): rule actions
/// raise named events; client applications register to receive them.
/// Undelivered events are retained in a bounded history so late-joining
/// consumers (and tests) can inspect recent activity.
class EventManager {
 public:
  explicit EventManager(size_t history_capacity = 1024)
      : history_capacity_(history_capacity) {}

  /// Registers a consumer for `event_name` ("*" = every event). Returns
  /// a registration id usable with Unregister.
  uint64_t Register(const std::string& event_name, EventConsumer consumer);
  void Unregister(uint64_t registration_id);

  /// Raises an event: delivers to consumers and appends to history. Reads
  /// a snapshot of the consumer list and compares names case-insensitively
  /// in place, so a raise allocates nothing beyond the history entry.
  void Raise(Event event);

  uint64_t num_raised() const;

  /// Most recent events, oldest first.
  std::vector<Event> History() const;
  void ClearHistory();

 private:
  struct Registration {
    uint64_t id;
    std::string event_name;  // "*" matches all
    EventConsumer consumer;
  };
  using ConsumerList = std::vector<Registration>;

  const size_t history_capacity_;
  mutable std::mutex mutex_;
  // Copy-on-write: Register/Unregister publish a new list, Raise delivers
  // from the snapshot it read under the lock.
  std::shared_ptr<const ConsumerList> consumers_ =
      std::make_shared<const ConsumerList>();
  std::deque<Event> history_;
  uint64_t next_id_ = 1;
  uint64_t raised_ = 0;
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_EVENTS_H_
