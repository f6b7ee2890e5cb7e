#include "core/events.h"

#include "util/string_util.h"

namespace tman {

std::string Event::ToString() const {
  std::string out = name + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString();
  }
  out += ")";
  return out;
}

uint64_t EventManager::Register(const std::string& event_name,
                                EventConsumer consumer) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t id = next_id_++;
  auto next = std::make_shared<ConsumerList>(*consumers_);
  next->push_back({id, event_name, std::move(consumer)});
  consumers_ = std::move(next);
  return id;
}

void EventManager::Unregister(uint64_t registration_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto next = std::make_shared<ConsumerList>(*consumers_);
  for (auto it = next->begin(); it != next->end(); ++it) {
    if (it->id == registration_id) {
      next->erase(it);
      consumers_ = std::move(next);
      return;
    }
  }
}

void EventManager::Raise(Event event) {
  std::shared_ptr<const ConsumerList> consumers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++raised_;
    consumers = consumers_;
    history_.push_back(event);
    while (history_.size() > history_capacity_) history_.pop_front();
  }
  // Deliver outside the lock: consumers may re-enter (e.g. create
  // triggers, raise further events, or unregister themselves — the
  // snapshot keeps this delivery's list alive).
  for (const Registration& r : *consumers) {
    if (r.event_name == "*" || EqualsIgnoreCase(r.event_name, event.name)) {
      r.consumer(event);
    }
  }
}

uint64_t EventManager::num_raised() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return raised_;
}

std::vector<Event> EventManager::History() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<Event>(history_.begin(), history_.end());
}

void EventManager::ClearHistory() {
  std::lock_guard<std::mutex> lock(mutex_);
  history_.clear();
}

}  // namespace tman
