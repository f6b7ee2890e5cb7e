#ifndef TRIGGERMAN_CLUSTER_ROUTER_H_
#define TRIGGERMAN_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/frame_conn.h"
#include "cluster/hash_ring.h"
#include "cluster/membership.h"
#include "ipc/transport.h"
#include "ipc/wire_format.h"
#include "types/update_descriptor.h"
#include "util/fault_injector.h"

namespace tman {

/// The router state that must survive a router restart for the cluster's
/// exactly-once guarantees to hold:
///   * `epoch` — the highest partition-map epoch this router installed.
///     Nodes persist the epoch they acked and refuse older maps, so a
///     restarted router that forgot its epoch could never readmit them
///     (it would push epoch 1 forever). Refused maps also carry the
///     node's durable epoch and the router adopts it (see
///     ClusterRouter), so persistence is an optimization for that path —
///     but it is load-bearing for fences:
///   * `fences` — per channel session, the highest backend sequence the
///     router saw acked at that node's last death. Tokens above the
///     fence were re-routed to new owners; if the fence is lost across a
///     router restart, a rejoining node replays them from its WAL and
///     they fire twice.
struct RouterDurableState {
  uint64_t epoch = 0;
  std::map<std::string, uint64_t> fences;

  void Encode(std::string* out) const;
  static Result<RouterDurableState> Decode(std::string_view blob);
};

struct ClusterRouterOptions {
  std::string name = "router";

  /// Partition function parameters; must match the member nodes'.
  ClusterConfig config;

  /// Failure detection knobs (heartbeat cadence, miss threshold,
  /// reconnect-probe backoff).
  MembershipOptions membership;

  /// Frame I/O (payload cap + optional ipc.* fault injector).
  FrameIoOptions io;

  /// Optional injector for cluster.* fault sites (cluster.route,
  /// cluster.connect, cluster.heartbeat, cluster.map.send).
  FaultInjector* faults = nullptr;

  /// Max tokens per backend batch.
  uint32_t batch_max_updates = 256;

  /// Send window granted to each front-end client session at hello.
  uint32_t client_initial_credits = 4096;

  /// How many times a token whose batch drew a non-retryable node error
  /// (anything but the partition-moved Unavailable) is re-routed before
  /// its client sequence is failed with that error. Unavailable bounces
  /// are not counted — they converge by map installs.
  uint32_t max_token_retries = 3;

  /// State recovered from the last incarnation (see RouterDurableState);
  /// default-empty for a fresh router.
  RouterDurableState initial_state;

  /// Called (with the router mutex held, so keep it cheap/local) every
  /// time the durable state changes: after a fence is recorded — before
  /// the fenced node's tokens are re-routed — and after every epoch
  /// bump. The callback persists the blob; on restart the caller feeds
  /// it back through `initial_state`.
  std::function<void(const RouterDurableState&)> persist_state;
};

struct ClusterRouterStats {
  uint64_t tokens_routed = 0;      // tokens accepted for routing
  uint64_t tokens_acked = 0;       // tokens acked by their owner node
  uint64_t batches_sent = 0;       // backend batches written
  uint64_t misrouted_retries = 0;  // whole-batch partition-moved bounces
  uint64_t repartitions = 0;       // partition map rebuilds (epoch bumps)
  uint64_t failovers = 0;          // node deaths that triggered reassignment
  uint64_t rejoins = 0;            // previously-dead nodes readmitted
  uint64_t heartbeats_sent = 0;
  uint64_t client_batches = 0;       // front-end update batches received
  uint64_t dedup_client_tokens = 0;  // client resends dropped by session seq
  uint64_t epoch_adoptions = 0;      // refused maps that raised our epoch
  uint64_t tokens_failed = 0;        // retry budget exhausted; client told
};

/// The cluster front end: speaks the TriggerMan framed wire protocol to
/// clients on one side and to member nodes on the other, partitioning the
/// token stream across nodes with a consistent-hash ring (virtual nodes,
/// fixed partition count; hot sources additionally spread by
/// equivalence-class key — see ClusterConfig).
///
/// Reliability model, end to end exactly-once:
///   * every client token is retained (channel in-flight list) until the
///     owner node acks the backend sequence that carried it; only then is
///     the client's own session sequence acked;
///   * a node death (hard channel failure, or heartbeat miss threshold)
///     triggers failover: the ring drops the node, the epoch bumps, the
///     dead node's partitions reassign, and every unacked in-flight token
///     re-routes to its new owner;
///   * the router records a fence — the highest backend sequence the dead
///     node acked on its channel — and ships it with every subsequent
///     partition map. A rejoining node applies the fence to tokens it
///     recovers from its WAL: anything above the fence was re-routed while
///     it was down and must not fire twice;
///   * a batch that lands on a node which no longer owns its partition is
///     rejected whole (retryable Unavailable, no sequence advance) and
///     re-routed — the sequence gap is harmless because node-side dedup is
///     high-water based.
///
/// Single-threaded pump core: PumpOnce(now_ms) advances everything one
/// bounded step with a caller-supplied logical clock, which is what the
/// deterministic cluster tests drive (same seed, same failover schedule).
/// StartServing() wraps the same core in a pump thread + accept thread
/// for the real-socket deployment.
class ClusterRouter {
 public:
  /// Dials one member node; called on (re)connect probes. Returning an
  /// error leaves the node dead and backs off the next probe.
  using NodeConnector =
      std::function<Result<std::unique_ptr<PollableTransport>>()>;

  /// Blocking accept used by the threaded shell's accept loop. Must
  /// return an error when the listener is closed (shutdown path).
  using AcceptFn = std::function<Result<std::unique_ptr<PollableTransport>>()>;

  explicit ClusterRouter(ClusterRouterOptions options = {});
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Registers a member node. Safe only before serving starts (the
  /// deterministic tests call it between pumps while single-threaded).
  void AddNode(const std::string& name, NodeConnector connector);

  /// Hands the router an accepted front-end client connection.
  void AddClientConn(std::unique_ptr<PollableTransport> transport);

  /// One bounded step of everything: backend channel I/O + acks +
  /// failover, then the membership tick (heartbeats, death verdicts,
  /// reconnect probes), so traffic already received counts before a
  /// verdict; then partition-map pushes, batch flushing, client I/O.
  /// Returns true on progress. `now_ms` is a logical clock — monotonic
  /// per caller.
  bool PumpOnce(uint64_t now_ms);

  // --- programmatic ingest (tests, bench; bypasses the wire front end) ---

  /// Appends one token to `session`'s stream; returns the session
  /// sequence assigned. Ack is observable via AckedSeq().
  uint64_t Submit(const std::string& session, UpdateDescriptor token);

  /// Highest contiguously-acked sequence for a client session.
  uint64_t AckedSeq(const std::string& session) const;

  /// First recorded-but-unreported token failure for a client session
  /// (StatusCode; 0 = none). Wire clients get it on their next ack push;
  /// programmatic submitters (tests, bench) poll it here.
  uint8_t SessionErrorCode(const std::string& session) const;

  /// True when no token is buffered, in flight, or awaiting re-route.
  bool Idle() const;

  /// Idle, and every alive node's channel is connected with the current
  /// partition map acknowledged.
  bool Converged() const;

  PartitionMap partition_map() const;
  ClusterRouterStats stats() const;
  std::map<std::string, PeerHealth> peers() const;

  /// Human-readable cluster state: ring ownership, per-node health and
  /// channel depth, repartition/failover counters. Served to clients that
  /// issue the `cluster` console command.
  std::string StatsString() const;

  // --- threaded shell (real sockets) -------------------------------------

  /// Starts a pump thread (wall-clock time base) and, if `accept` is
  /// given, an accept thread feeding AddClientConn.
  void StartServing(AcceptFn accept);
  void StopServing();

 private:
  enum class ChannelState : uint8_t {
    kDown,        // no connection; probed on the membership schedule
    kConnecting,  // transport up, hello sent, awaiting hello-reply
    kFencing,     // hello done on a (re)joining node; map + fences sent,
                  // awaiting the ack that completes admission to the ring
    kUp,          // full member; batches flow when the map is synced
  };

  /// Client-session ack bookkeeping: acks to the client are cumulative
  /// over the contiguous prefix, but backend acks arrive out of order
  /// across nodes, so completions park in `done` until the prefix closes.
  struct ClientSession {
    uint64_t high_submitted = 0;
    uint64_t acked = 0;
    std::set<uint64_t> done;  // completed seqs above `acked`
    // First unreported token failure (retry budget exhausted): attached
    // to the next cumulative ack pushed to the session's client, then
    // cleared. The failed sequence still advances the ack prefix —
    // "acked" means resolved, the status says how.
    uint8_t error_code = 0;
    std::string error;
  };

  /// One client token riding a backend channel.
  struct RoutedToken {
    UpdateDescriptor token;
    ClientSession* session = nullptr;  // in sessions_, never erased
    uint64_t client_seq = 0;
    uint32_t attempts = 0;  // non-retryable error bounces (see
                            // max_token_retries); Unavailable not counted
  };

  /// A batch written to a node and not yet acked. Backend sequences are
  /// assigned at send time (first_seq..first_seq+n-1) so channel batches
  /// stay contiguous no matter how tokens were re-routed beforehand.
  struct ChannelBatch {
    uint64_t first_seq = 0;
    std::vector<RoutedToken> tokens;
  };

  struct NodeChannel {
    NodeConnector connector;
    std::unique_ptr<FrameConn> conn;
    ChannelState state = ChannelState::kDown;
    bool map_synced = false;    // node acked the current epoch
    bool map_inflight = false;  // map sent, ack pending
    uint64_t next_seq = 1;      // next backend sequence to assign
    uint64_t acked_seq = 0;     // highest backend sequence acked
    uint32_t credits = 0;
    std::deque<ChannelBatch> inflight;
    std::vector<RoutedToken> pending;  // routed here, not yet sent
  };

  struct ClientConn {
    uint64_t id = 0;
    std::unique_ptr<FrameConn> conn;
    std::string session;
    bool hello_done = false;
    uint64_t acked_sent = 0;  // last ack_seq pushed to this client
  };

  /// A console command fanned out to every alive node; the reply to the
  /// client aggregates per-node results (or the first error).
  struct PendingCommand {
    uint64_t client_conn_id = 0;
    uint64_t client_request_id = 0;
    std::set<std::string> waiting;
    uint8_t error_code = 0;
    std::string error;
    std::string combined;
  };

  // Core steps (mutex held).
  void PumpMembership(uint64_t now_ms);
  bool PumpChannels(uint64_t now_ms);
  bool PumpClients();
  void FlushChannelBatches(NodeChannel* ch);
  void TryConnect(const std::string& name, NodeChannel* ch, uint64_t now_ms);
  void ChannelDown(const std::string& name, NodeChannel* ch, uint64_t now_ms);
  void Failover(const std::string& name, NodeChannel* ch, uint64_t now_ms);
  void CompleteJoin(const std::string& name, NodeChannel* ch, uint64_t now_ms);
  void InstallNewMap();
  void SendMap(const std::string& name, NodeChannel* ch);
  void HandleChannelFrame(const std::string& name, NodeChannel* ch,
                          const Frame& frame, uint64_t now_ms);
  void HandleChannelAck(const std::string& name, NodeChannel* ch,
                        const UpdateAckFrame& ack);
  void HandleClientFrame(ClientConn* client, const Frame& frame);
  void HandleCommandReply(const std::string& node,
                          const CommandReplyFrame& reply);
  void FinishCommand(uint64_t request_id);
  void Route(RoutedToken token);
  void MarkClientAcked(ClientSession* session, uint64_t seq);
  void MarkClientFailed(ClientSession* session, uint64_t seq,
                        uint8_t status_code, const std::string& message);
  void PersistStateLocked();
  std::string StatsStringLocked() const;
  bool IdleLocked() const;

  /// Backend session name for one node's channel: unique per node so a
  /// fence recorded for one dead node can never touch another node's
  /// pending tokens.
  std::string ChannelSession(const std::string& node) const {
    return options_.name + "->" + node;
  }

  ClusterRouterOptions options_;

  mutable std::mutex mutex_;
  ClusterMembership membership_;
  HashRing ring_;
  PartitionMap map_;
  uint64_t epoch_ = 0;
  std::map<std::string, NodeChannel> channels_;
  /// Sticky rejoin fences: channel session -> highest backend seq acked
  /// at that node's last death. Shipped with every map install.
  std::map<std::string, uint64_t> fences_;
  std::deque<RoutedToken> unrouted_;  // no owner yet; retried each pump

  std::map<std::string, ClientSession> sessions_;
  std::map<uint64_t, ClientConn> clients_;
  std::map<std::string, uint64_t> session_conn_;  // session -> client conn id
  uint64_t next_client_id_ = 1;

  std::map<uint64_t, PendingCommand> commands_;
  uint64_t next_request_id_ = 1;
  uint64_t next_nonce_ = 1;

  ClusterRouterStats stats_;

  // Threaded shell.
  std::atomic<bool> running_{false};
  std::thread pump_thread_;
  std::thread accept_thread_;
};

}  // namespace tman

#endif  // TRIGGERMAN_CLUSTER_ROUTER_H_
