#include "storage/disk_manager.h"

#include <chrono>
#include <cstring>
#include <thread>

namespace tman {

DiskManager::DiskManager(uint64_t access_latency_ns)
    : access_latency_ns_(access_latency_ns) {
  fault_injector_.RegisterSite("disk.read");
  fault_injector_.RegisterSite("disk.write");
  fault_injector_.RegisterSite("disk.write.short");
  fault_injector_.RegisterSite("disk.sync");
}

void DiskManager::SimulateLatency() const {
  uint64_t ns = access_latency_ns_.load(std::memory_order_relaxed);
  if (ns == 0) return;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  // Busy-wait: sleep granularity on Linux is far coarser than realistic
  // device latencies, and the benches need stable per-access costs.
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

PageId DiskManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  pages_.push_back(std::make_unique<Page>());
  ++stats_.allocations;
  return static_cast<PageId>(pages_.size() - 1);
}

void DiskManager::InjectFaultAfter(uint64_t after_accesses) {
  fault_injector_.ArmCountdown("disk.*", after_accesses);
}

void DiskManager::ClearFaults() { fault_injector_.ClearAll(); }

Status DiskManager::ReadPage(PageId id, Page* page) {
  TMAN_RETURN_IF_ERROR(fault_injector_.Check("disk.read"));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id >= pages_.size() || pages_[id] == nullptr) {
      return Status::IoError("read of invalid page " + std::to_string(id));
    }
    *page = *pages_[id];
    ++stats_.reads;
  }
  SimulateLatency();
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const Page& page) {
  TMAN_RETURN_IF_ERROR(fault_injector_.Check("disk.write"));
  Status torn = fault_injector_.Check("disk.write.short");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id >= pages_.size() || pages_[id] == nullptr) {
      return Status::IoError("write of invalid page " + std::to_string(id));
    }
    if (!torn.ok()) {
      // Torn write: a prefix of the page lands, the tail keeps its old
      // bytes, and the caller sees the error. Mirrors a power-cut partial
      // sector write; recovery must detect the mix (e.g. via record CRCs).
      std::memcpy(pages_[id]->data, page.data, kPageSize / 2);
      ++stats_.writes;
      return torn;
    }
    *pages_[id] = page;
    ++stats_.writes;
  }
  SimulateLatency();
  return Status::OK();
}

Status DiskManager::Sync() {
  TMAN_RETURN_IF_ERROR(fault_injector_.Check("disk.sync"));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.syncs;
  }
  SimulateLatency();
  return Status::OK();
}

Status DiskManager::DeallocatePage(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= pages_.size() || pages_[id] == nullptr) {
    return Status::IoError("deallocate of invalid page " + std::to_string(id));
  }
  pages_[id].reset();
  return Status::OK();
}

uint64_t DiskManager::num_pages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pages_.size();
}

DiskStats DiskManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void DiskManager::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = DiskStats();
}

}  // namespace tman
