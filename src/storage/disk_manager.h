#ifndef TRIGGERMAN_STORAGE_DISK_MANAGER_H_
#define TRIGGERMAN_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/page.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace tman {

/// Cumulative I/O counters for a DiskManager.
struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t syncs = 0;
  uint64_t allocations = 0;
};

/// Simulated disk: a growable array of pages kept in process memory, with
/// read/write counters and optional per-access latency. The paper's host
/// (Informix) provides real disk tables; this simulation preserves the one
/// property the organization-strategy experiments depend on — disk-resident
/// structures pay a per-page cost main-memory structures do not.
class DiskManager {
 public:
  /// `access_latency_ns`: artificial busy-wait added to every page read or
  /// write that reaches the "disk" (i.e. every buffer pool miss/flush).
  /// 0 disables the delay; counters are always maintained.
  explicit DiskManager(uint64_t access_latency_ns = 0);

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a zeroed page and returns its id.
  PageId AllocatePage();

  /// Copies the stored page into *page.
  Status ReadPage(PageId id, Page* page);

  /// Persists *page. Under an armed "disk.write.short" fault the write
  /// tears: only a prefix of the page lands before the error is returned,
  /// leaving a mix of old and new bytes on disk — the torn-page shape
  /// recovery code must tolerate.
  Status WritePage(PageId id, const Page& page);

  /// Durability barrier (the simulated fsync). The in-memory disk array is
  /// trivially "durable", so this only charges the sync cost and gives
  /// fault injection a "disk.sync" site; callers must still treat a
  /// failure as "nothing since the previous successful Sync is durable".
  Status Sync();

  /// Frees a page and its memory. Freed ids are not reused: a later read,
  /// write or deallocate of the id returns IoError.
  Status DeallocatePage(PageId id);

  uint64_t num_pages() const;

  DiskStats stats() const;
  void ResetStats();

  void set_access_latency_ns(uint64_t ns) {
    access_latency_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t access_latency_ns() const {
    return access_latency_ns_.load(std::memory_order_relaxed);
  }

  /// The fault injector shared by this disk and every structure layered
  /// on it (buffer pool, heap tables and the WAL all consult this
  /// instance), so one injector arms/clears fault sites across the whole
  /// storage stack. Page reads check "disk.read", writes "disk.write".
  FaultInjector* fault_injector() { return &fault_injector_; }

  /// Legacy convenience (equivalent to arming "disk.*" with a countdown):
  /// after `after_accesses` more successful page reads/writes, every
  /// subsequent access fails with IoError until ClearFaults() is called.
  void InjectFaultAfter(uint64_t after_accesses);

  /// Disarms every fault in the shared injector.
  void ClearFaults();

 private:
  void SimulateLatency() const;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Page>> pages_;  // null = deallocated
  DiskStats stats_;
  std::atomic<uint64_t> access_latency_ns_;
  FaultInjector fault_injector_;
};

}  // namespace tman

#endif  // TRIGGERMAN_STORAGE_DISK_MANAGER_H_
