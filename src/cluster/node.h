#ifndef TRIGGERMAN_CLUSTER_NODE_H_
#define TRIGGERMAN_CLUSTER_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/frame_conn.h"
#include "cluster/hash_ring.h"
#include "core/trigger_manager.h"
#include "ipc/transport.h"
#include "ipc/wire_format.h"

namespace tman {

struct ClusterNodeOptions {
  std::string name = "node";
  ClusterConfig config;

  /// Ingest window granted to each connection at hello (replenished per
  /// ack, so it is also the per-connection in-flight bound).
  uint32_t initial_credits = 1 << 16;

  /// Router-liveness lease (0 = disabled). When an admitted member sees
  /// no router traffic for this long, it self-holds processing: in an
  /// asymmetric (mute) partition the node never observes the channel
  /// close, yet the router — after its heartbeat-miss verdict — may
  /// already be re-routing this node's staged tokens. Mirror the
  /// router's verdict window here (heartbeat_interval * miss_threshold)
  /// so the node stops firing no later than the router stops waiting.
  uint64_t router_lease_ms = 0;

  /// Frame I/O (payload cap + optional ipc.* fault injector).
  FrameIoOptions io;
};

struct ClusterNodeStats {
  uint64_t batches_accepted = 0;
  uint64_t batches_rejected = 0;  // whole-batch partition-moved rejects
  uint64_t tokens_applied = 0;
  uint64_t tokens_deduped = 0;
  uint64_t maps_installed = 0;
  uint64_t tokens_fenced = 0;  // recovered tokens discarded by rejoin fences
  uint64_t lease_holds = 0;    // self-holds from router-liveness lease expiry
};

/// One cluster member: partition-ownership enforcement, partition-map
/// installs (with durable epoch + rejoin fences) and the ingest protocol,
/// layered over an existing TriggerManager. Two ways to drive it:
///
///   * pump mode (deterministic tests, bench, the pollable loopback):
///     AddConnection() hands it PollableTransports and Pump() advances
///     all connections one bounded step — no threads;
///   * hook mode (real sockets): a TmanServer owns the connections and
///     calls AdmitToken / HandlePartitionMap through its cluster hooks
///     (TmanServerOptions), so the production server reuses exactly the
///     logic the deterministic tests proved.
///
/// The partition-map epoch is persisted through the TriggerManager's
/// durable meta (WAL kMeta record, carried across checkpoints): a node
/// that rejoins after a crash recovers its last installed epoch and can
/// tell how stale its map is. Rejoin fences (see PartitionMapFrame) are
/// applied before the map takes effect.
///
/// Thread-safe where hook mode needs it (map state under a mutex);
/// Pump() itself is single-owner.
class ClusterNode {
 public:
  ClusterNode(TriggerManager* tman, ClusterNodeOptions options);

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  const std::string& name() const { return options_.name; }
  uint64_t epoch() const;

  /// Ownership check for one token: OK when this node owns the token's
  /// partition under the installed map, retryable Unavailable otherwise.
  /// Bound to TmanServerOptions::cluster_admit in hook mode.
  Status AdmitToken(const UpdateDescriptor& token);

  /// Installs a partition map: validates the epoch against the durable
  /// one, applies rejoin fences to recovered WAL tokens, persists the new
  /// epoch, and releases the recovery hold. Bound to
  /// TmanServerOptions::cluster_map in hook mode.
  PartitionMapAckFrame HandlePartitionMap(const PartitionMapFrame& frame);

  /// True while the node must not process staged tokens, because the
  /// router's fences may be about to invalidate some of them: (a) it
  /// crashed with a cluster epoch installed and recovered pending WAL
  /// tokens, (b) it lost the router's channel while an admitted member
  /// (false-death window: the router may be re-routing its staged work
  /// right now), or (c) the router-liveness lease expired (mute
  /// partition — same window, unobservable channel). Released by the
  /// next partition-map install, which carries the authoritative fences.
  /// The hold is also enforced inside the engine (the TriggerManager's
  /// task queue pauses), so every driver — threaded pool or external
  /// pumper — is bound by it; this accessor remains for introspection.
  bool processing_held() const;

  // --- hook mode (TmanServer owns the sockets) ---------------------------

  /// The router's connection dropped (TmanServerOptions::
  /// cluster_router_lost): enter the false-death hold if admitted.
  void OnRouterChannelLost();

  /// A frame arrived on the router's connection at `now_ms`
  /// (TmanServerOptions::cluster_activity): renews the liveness lease
  /// and releases a lease self-hold — traffic on the channel means the
  /// router had not failed over as of sending it.
  void NoteRouterTraffic(uint64_t now_ms);

  /// Periodic lease check (TmanServerOptions::cluster_tick): self-holds
  /// when an admitted member has seen no router traffic within
  /// router_lease_ms.
  void TickRouterLease(uint64_t now_ms);

  // --- pump mode ----------------------------------------------------------

  void AddConnection(std::unique_ptr<PollableTransport> transport);

  /// Pumps every connection: drains outboxes, decodes and handles
  /// inbound frames, flushes the replies (acks) they queued, reaps dead
  /// connections. Returns true on progress.
  /// `now_ms` (logical clock, monotonic per caller) feeds the router-
  /// liveness lease; pass 0 to skip lease accounting for this step.
  bool Pump(uint64_t now_ms = 0);

  size_t active_connections() const { return conns_.size(); }

  ClusterNodeStats stats() const;

 private:
  struct NodeConn {
    std::unique_ptr<FrameConn> conn;
    std::string session;
    bool hello_done = false;
    bool is_router = false;  // sent us a partition map
    uint64_t last_applied = 0;
  };

  Status HandleFrame(NodeConn* conn, const Frame& frame);
  void HandleUpdateBatch(NodeConn* conn, UpdateBatchFrame batch);

  /// Pushes the current hold state (hold_ || lease_hold_) into the
  /// engine: the TriggerManager's task queue pauses while held, so the
  /// hold binds every driver. Call with mutex_ held after changing
  /// either flag.
  void ApplyHoldLocked();

  static std::string EncodeEpoch(uint64_t epoch);
  static uint64_t DecodeEpoch(const std::string& blob);

  TriggerManager* tman_;
  ClusterNodeOptions options_;

  mutable std::mutex mutex_;  // map_, epoch_, holds, lease, stats_
  PartitionMap map_;
  uint64_t durable_epoch_ = 0;
  bool hold_ = false;        // fences pending (recovery or channel loss)
  bool lease_hold_ = false;  // router-liveness lease expired
  uint64_t last_router_ms_ = 0;
  ClusterNodeStats stats_;

  std::vector<NodeConn> conns_;
};

}  // namespace tman

#endif  // TRIGGERMAN_CLUSTER_NODE_H_
