#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "util/codec.h"
#include "util/logging.h"

namespace tman {

void RouterDurableState::Encode(std::string* out) const {
  PutU64(out, epoch);
  PutU32(out, static_cast<uint32_t>(fences.size()));
  for (const auto& [session, fence] : fences) {
    PutLengthPrefixed(out, session);
    PutU64(out, fence);
  }
}

Result<RouterDurableState> RouterDurableState::Decode(std::string_view blob) {
  RouterDurableState state;
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetU64(blob, &pos, &state.epoch) || !GetU32(blob, &pos, &count)) {
    return Status::Corruption("router state: malformed blob");
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view session;
    uint64_t fence = 0;
    if (!GetLengthPrefixed(blob, &pos, &session) ||
        !GetU64(blob, &pos, &fence)) {
      return Status::Corruption("router state: malformed fence entry");
    }
    state.fences[std::string(session)] = fence;
  }
  return state;
}

ClusterRouter::ClusterRouter(ClusterRouterOptions options)
    : options_(std::move(options)), membership_(options_.membership) {
  epoch_ = options_.initial_state.epoch;
  fences_ = options_.initial_state.fences;
  if (options_.faults != nullptr) {
    options_.faults->RegisterSite("cluster.route");
    options_.faults->RegisterSite("cluster.connect");
    options_.faults->RegisterSite("cluster.heartbeat");
    options_.faults->RegisterSite("cluster.map.send");
  }
}

ClusterRouter::~ClusterRouter() { StopServing(); }

void ClusterRouter::AddNode(const std::string& name, NodeConnector connector) {
  std::lock_guard<std::mutex> lock(mutex_);
  NodeChannel& ch = channels_[name];
  ch.connector = std::move(connector);
  membership_.AddPeer(name, 0);
}

void ClusterRouter::AddClientConn(std::unique_ptr<PollableTransport> transport) {
  std::lock_guard<std::mutex> lock(mutex_);
  ClientConn client;
  client.id = next_client_id_++;
  client.conn = std::make_unique<FrameConn>(std::move(transport), options_.io);
  clients_.emplace(client.id, std::move(client));
}

bool ClusterRouter::PumpOnce(uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Channels first: acks and pongs already received must count before a
  // membership tick can reach a death verdict on their sender.
  bool progress = PumpChannels(now_ms);
  PumpMembership(now_ms);
  if (PumpClients()) progress = true;
  return progress;
}

void ClusterRouter::PumpMembership(uint64_t now_ms) {
  MembershipActions actions = membership_.Tick(now_ms);
  for (const std::string& name : actions.died) {
    auto it = channels_.find(name);
    if (it != channels_.end()) Failover(name, &it->second, now_ms);
  }
  for (const std::string& name : actions.ping) {
    auto it = channels_.find(name);
    if (it == channels_.end()) continue;
    NodeChannel& ch = it->second;
    if (!ch.conn || ch.conn->failed()) continue;
    uint64_t nonce = next_nonce_++;
    if (options_.faults != nullptr &&
        !options_.faults->Check("cluster.heartbeat").ok()) {
      // Dropped heartbeat: account it as sent (so the miss counter runs)
      // without writing the frame — this is how the fault site exercises
      // the miss-threshold failover path.
      membership_.OnPingSent(name, nonce);
      continue;
    }
    PingFrame ping;
    ping.nonce = nonce;
    ch.conn->SendPayload(FrameType::kPing, ping);
    membership_.OnPingSent(name, nonce);
    ++stats_.heartbeats_sent;
  }
  for (const std::string& name : actions.probe) {
    auto it = channels_.find(name);
    if (it == channels_.end()) continue;
    if (it->second.state == ChannelState::kDown) {
      TryConnect(name, &it->second, now_ms);
    }
  }
}

void ClusterRouter::TryConnect(const std::string& name, NodeChannel* ch,
                               uint64_t now_ms) {
  if (!ch->connector) return;
  if (options_.faults != nullptr &&
      !options_.faults->Check("cluster.connect").ok()) {
    return;  // retried on the next probe
  }
  auto transport = ch->connector();
  if (!transport.ok()) {
    // An alive peer we cannot dial is a dead peer: fail over now rather
    // than waiting out the heartbeat misses on a connection that does
    // not exist.
    if (membership_.IsAlive(name)) ChannelDown(name, ch, now_ms);
    return;
  }
  ch->conn = std::make_unique<FrameConn>(std::move(*transport), options_.io);
  ch->state = ChannelState::kConnecting;
  HelloFrame hello;
  hello.client_name = ChannelSession(name);
  ch->conn->SendPayload(FrameType::kHello, hello);
}

bool ClusterRouter::PumpChannels(uint64_t now_ms) {
  bool progress = false;

  // Bootstrap / recovery: alive peers with no connection get dialed
  // immediately (dead peers are dialed on the membership probe schedule).
  for (auto& [name, ch] : channels_) {
    if (ch.state == ChannelState::kDown && membership_.IsAlive(name)) {
      TryConnect(name, &ch, now_ms);
    }
  }

  for (auto& [name, ch] : channels_) {
    if (!ch.conn) continue;
    if (ch.conn->Pump()) progress = true;
    Frame frame;
    while (ch.conn && ch.conn->NextFrame(&frame)) {
      progress = true;
      HandleChannelFrame(name, &ch, frame, now_ms);
    }
    if (ch.conn && ch.conn->failed()) {
      ChannelDown(name, &ch, now_ms);
      progress = true;
    }
  }

  // Push the current map to any channel that has not acked it.
  for (auto& [name, ch] : channels_) {
    if (!ch.conn || ch.conn->failed()) continue;
    if (ch.state != ChannelState::kFencing && ch.state != ChannelState::kUp)
      continue;
    if (!ch.map_synced && !ch.map_inflight) SendMap(name, &ch);
  }

  // Retry tokens that had no owner (empty ring, or a routing fault).
  if (!unrouted_.empty()) {
    std::deque<RoutedToken> retry;
    retry.swap(unrouted_);
    for (RoutedToken& token : retry) Route(std::move(token));
  }

  // Build and send batches, then give each channel one more pump so the
  // bytes move this step instead of next.
  for (auto& [name, ch] : channels_) {
    FlushChannelBatches(&ch);
    if (ch.conn && !ch.conn->failed() && ch.conn->outbox_bytes() > 0) {
      if (ch.conn->Pump()) progress = true;
    }
  }
  return progress;
}

void ClusterRouter::HandleChannelFrame(const std::string& name,
                                       NodeChannel* ch, const Frame& frame,
                                       uint64_t now_ms) {
  switch (frame.type) {
    case FrameType::kHelloReply: {
      auto reply = HelloReplyFrame::Decode(frame.payload);
      if (!reply.ok() || reply->status_code != 0) {
        ch->conn->Close();
        return;
      }
      ch->credits = reply->initial_credits;
      // The node's durable session high-water may exceed what we saw
      // acked (acks lost in the crash); those tokens were re-routed and
      // will be fenced, so just adopt the higher mark.
      ch->acked_seq = std::max(ch->acked_seq, reply->last_applied_seq);
      ch->next_seq = std::max(ch->next_seq, ch->acked_seq + 1);
      // Every (re)connect admits the node through the fencing step: it
      // must install the current map (and fences) before joining the ring.
      ch->state = ChannelState::kFencing;
      ch->map_synced = false;
      ch->map_inflight = false;
      return;
    }
    case FrameType::kPartitionMapAck: {
      auto ack = PartitionMapAckFrame::Decode(frame.payload);
      if (!ack.ok()) {
        ch->conn->Close();
        return;
      }
      ch->map_inflight = false;
      if (ack->status_code != 0) {
        TMAN_LOG(kWarn) << "cluster: " << name << " refused map epoch "
                       << epoch_ << ": " << ack->message;
        if (ack->prior_epoch > epoch_) {
          // The node durably installed a newer epoch than this router
          // remembers — a restarted router behind the cluster's history.
          // Adopt the node's epoch and rebuild: InstallNewMap bumps to
          // prior+1, marks every channel unsynced, and the resent map
          // now clears the node's staleness check. Closing the channel
          // here (the old behavior) just reconnected and refused again,
          // forever.
          ++stats_.epoch_adoptions;
          TMAN_LOG(kInfo) << "cluster: adopting epoch " << ack->prior_epoch
                         << " from " << name << " (ours was " << epoch_
                         << ")";
          epoch_ = ack->prior_epoch;
          InstallNewMap();
        }
        // Otherwise the refusal was of an older in-flight map (or a
        // transient node-side persist failure); the current map resends
        // next pump since map_synced and map_inflight are both false.
        return;
      }
      if (ack->epoch != epoch_) return;  // stale ack; current map resends
      ch->map_synced = true;
      if (ch->state == ChannelState::kFencing) CompleteJoin(name, ch, now_ms);
      return;
    }
    case FrameType::kUpdateAck: {
      auto ack = UpdateAckFrame::Decode(frame.payload);
      if (!ack.ok()) {
        ch->conn->Close();
        return;
      }
      HandleChannelAck(name, ch, *ack);
      return;
    }
    case FrameType::kPong: {
      auto pong = PingFrame::Decode(frame.payload);
      if (pong.ok()) membership_.OnPong(name, pong->nonce);
      return;
    }
    case FrameType::kCommandReply: {
      auto reply = CommandReplyFrame::Decode(frame.payload);
      if (reply.ok()) HandleCommandReply(name, *reply);
      return;
    }
    case FrameType::kCreditGrant: {
      auto grant = CreditGrantFrame::Decode(frame.payload);
      if (grant.ok()) ch->credits += grant->credits;
      return;
    }
    case FrameType::kGoodbye:
      ch->conn->Close();
      return;
    default:
      TMAN_LOG(kWarn) << "cluster: unexpected frame from " << name << ": "
                     << FrameTypeName(frame.type);
      return;
  }
}

void ClusterRouter::HandleChannelAck(const std::string& name, NodeChannel* ch,
                                     const UpdateAckFrame& ack) {
  ch->credits += ack.credits;
  if (ch->inflight.empty()) {
    // Unsolicited ack (e.g. pure high-water report); adopt the mark.
    ch->acked_seq = std::max(ch->acked_seq, ack.ack_seq);
    return;
  }
  ChannelBatch batch = std::move(ch->inflight.front());
  ch->inflight.pop_front();
  if (ack.status_code == 0) {
    ch->acked_seq = std::max(ch->acked_seq, ack.ack_seq);
    stats_.tokens_acked += batch.tokens.size();
    for (RoutedToken& token : batch.tokens) {
      MarkClientAcked(token.session, token.client_seq);
    }
    return;
  }
  if (ack.status_code == static_cast<uint8_t>(StatusCode::kUnavailable)) {
    // Partition moved under the batch: the node rejected it whole with no
    // sequence advance. Re-route; the burned sequence numbers are
    // harmless (node dedup is high-water based). Not counted against the
    // retry budget — these bounces converge as map installs settle.
    ++stats_.misrouted_retries;
    for (RoutedToken& token : batch.tokens) Route(std::move(token));
    return;
  }
  // A non-retryable node error (e.g. a WAL write failure): re-routing
  // unconditionally would spin a hot resend loop against the same sick
  // owner. Give each token a bounded number of attempts, then resolve
  // its client sequence with the node's error so the session does not
  // wedge behind it.
  TMAN_LOG(kWarn) << "cluster: " << name << " rejected batch: "
                 << ack.message;
  for (RoutedToken& token : batch.tokens) {
    if (++token.attempts <= options_.max_token_retries) {
      Route(std::move(token));
      continue;
    }
    ++stats_.tokens_failed;
    MarkClientFailed(token.session, token.client_seq, ack.status_code,
                     ack.message);
  }
}

void ClusterRouter::FlushChannelBatches(NodeChannel* ch) {
  if (ch->state != ChannelState::kUp || !ch->map_synced) return;
  if (!ch->conn || ch->conn->failed()) return;
  auto next = ch->pending.begin();
  while (next != ch->pending.end() && ch->credits > 0) {
    size_t n = std::min<size_t>({static_cast<size_t>(ch->pending.end() - next),
                                 ch->credits, options_.batch_max_updates});
    ChannelBatch batch;
    batch.first_seq = ch->next_seq;
    batch.tokens.assign(std::make_move_iterator(next),
                        std::make_move_iterator(next + n));
    next += n;
    // The tokens move into the frame for encoding and back afterwards,
    // rather than being copied once per send.
    UpdateBatchFrame frame;
    frame.first_seq = ch->next_seq;
    frame.updates.reserve(n);
    for (RoutedToken& token : batch.tokens) {
      frame.updates.push_back(std::move(token.token));
    }
    ch->conn->SendPayload(FrameType::kUpdateBatch, frame);
    for (size_t i = 0; i < n; ++i) {
      batch.tokens[i].token = std::move(frame.updates[i]);
    }
    ch->next_seq += n;
    ch->credits -= static_cast<uint32_t>(n);
    ch->inflight.push_back(std::move(batch));
    ++stats_.batches_sent;
  }
  ch->pending.erase(ch->pending.begin(), next);
}

void ClusterRouter::ChannelDown(const std::string& name, NodeChannel* ch,
                                uint64_t now_ms) {
  if (membership_.OnChannelDown(name, now_ms)) {
    Failover(name, ch, now_ms);
    return;
  }
  // Already dead (a failed reconnect attempt): just reset the channel and
  // let the membership probe schedule drive the next attempt.
  ch->conn.reset();
  ch->state = ChannelState::kDown;
  ch->map_synced = false;
  ch->map_inflight = false;
  ch->credits = 0;
}

void ClusterRouter::Failover(const std::string& name, NodeChannel* ch,
                             uint64_t now_ms) {
  ++stats_.failovers;
  TMAN_LOG(kInfo) << "cluster: node " << name << " down; failing over";

  // Fence: everything above this backend sequence that the node may have
  // durably accepted (but not acked) is about to be re-routed, and must
  // not fire from the node's WAL when it rejoins. Persist before
  // re-routing a single orphan: once a copy is in flight to a new owner,
  // a router crash that forgot the fence would let the rejoining node
  // replay the originals.
  fences_[ChannelSession(name)] = ch->acked_seq;
  PersistStateLocked();

  std::vector<RoutedToken> orphans;
  for (ChannelBatch& batch : ch->inflight) {
    for (RoutedToken& token : batch.tokens) orphans.push_back(std::move(token));
  }
  for (RoutedToken& token : ch->pending) orphans.push_back(std::move(token));
  ch->inflight.clear();
  ch->pending.clear();
  ch->conn.reset();
  ch->state = ChannelState::kDown;
  ch->map_synced = false;
  ch->map_inflight = false;
  ch->credits = 0;

  if (ring_.HasNode(name)) {
    ring_.RemoveNode(name);
    InstallNewMap();
  }
  for (RoutedToken& token : orphans) Route(std::move(token));

  // Console commands waiting on the dead node will never hear back.
  std::vector<uint64_t> finished;
  for (auto& [rid, cmd] : commands_) {
    if (cmd.waiting.erase(name) == 0) continue;
    if (cmd.error_code == 0) {
      cmd.error_code = static_cast<uint8_t>(StatusCode::kUnavailable);
      cmd.error = "node " + name + " lost mid-command";
    }
    if (cmd.waiting.empty()) finished.push_back(rid);
  }
  for (uint64_t rid : finished) FinishCommand(rid);
  (void)now_ms;
}

void ClusterRouter::CompleteJoin(const std::string& name, NodeChannel* ch,
                                 uint64_t now_ms) {
  ch->state = ChannelState::kUp;
  auto peer = membership_.peers().find(name);
  if (peer != membership_.peers().end() && peer->second.deaths > 0) {
    ++stats_.rejoins;
    TMAN_LOG(kInfo) << "cluster: node " << name << " rejoined";
  }
  membership_.MarkAlive(name, now_ms);
  ring_.AddNode(name);
  InstallNewMap();
}

void ClusterRouter::InstallNewMap() {
  ++epoch_;
  map_ = BuildPartitionMap(ring_, epoch_, options_.config.num_partitions);
  ++stats_.repartitions;
  PersistStateLocked();
  // Tokens parked on a channel may now belong elsewhere; re-route them
  // all. (In-flight batches stay — a wrong destination bounces them back
  // with a retryable reject.)
  std::vector<RoutedToken> reroute;
  for (auto& [name, ch] : channels_) {
    ch.map_synced = false;
    ch.map_inflight = false;
    for (RoutedToken& token : ch.pending) reroute.push_back(std::move(token));
    ch.pending.clear();
  }
  for (RoutedToken& token : reroute) Route(std::move(token));
}

void ClusterRouter::SendMap(const std::string& name, NodeChannel* ch) {
  if (options_.faults != nullptr &&
      !options_.faults->Check("cluster.map.send").ok()) {
    return;  // retried next pump (map_inflight stays false)
  }
  PartitionMapFrame frame;
  frame.epoch = epoch_;
  frame.owners = map_.owners;
  frame.fences.assign(fences_.begin(), fences_.end());
  ch->conn->SendPayload(FrameType::kPartitionMap, frame);
  ch->map_inflight = true;
  (void)name;
}

void ClusterRouter::Route(RoutedToken token) {
  if (options_.faults != nullptr &&
      !options_.faults->Check("cluster.route").ok()) {
    unrouted_.push_back(std::move(token));
    return;
  }
  uint32_t partition = TokenPartition(token.token, options_.config);
  std::string owner;
  if (partition < map_.owners.size()) owner = map_.owners[partition];
  if (owner.empty()) {
    unrouted_.push_back(std::move(token));
    return;
  }
  auto it = channels_.find(owner);
  if (it == channels_.end()) {
    unrouted_.push_back(std::move(token));
    return;
  }
  it->second.pending.push_back(std::move(token));
}

void ClusterRouter::PersistStateLocked() {
  if (!options_.persist_state) return;
  RouterDurableState state;
  state.epoch = epoch_;
  state.fences = fences_;
  options_.persist_state(state);
}

void ClusterRouter::MarkClientFailed(ClientSession* session, uint64_t seq,
                                     uint8_t status_code,
                                     const std::string& message) {
  if (session->error_code == 0) {
    session->error_code = status_code;
    session->error = "seq " + std::to_string(seq) + ": " + message;
  }
  // Resolve the sequence so the cumulative ack prefix advances past the
  // failed token; the attached status tells the client it failed.
  MarkClientAcked(session, seq);
}

void ClusterRouter::MarkClientAcked(ClientSession* session, uint64_t seq) {
  if (seq <= session->acked) return;
  session->done.insert(seq);
  while (!session->done.empty() &&
         *session->done.begin() == session->acked + 1) {
    ++session->acked;
    session->done.erase(session->done.begin());
  }
}

uint64_t ClusterRouter::Submit(const std::string& session,
                               UpdateDescriptor token) {
  std::lock_guard<std::mutex> lock(mutex_);
  ClientSession* s = &sessions_[session];
  uint64_t seq = ++s->high_submitted;
  ++stats_.tokens_routed;
  Route(RoutedToken{std::move(token), s, seq});
  return seq;
}

uint64_t ClusterRouter::AckedSeq(const std::string& session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session);
  return it == sessions_.end() ? 0 : it->second.acked;
}

uint8_t ClusterRouter::SessionErrorCode(const std::string& session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session);
  return it == sessions_.end() ? 0 : it->second.error_code;
}

bool ClusterRouter::IdleLocked() const {
  if (!unrouted_.empty()) return false;
  for (const auto& [name, ch] : channels_) {
    if (!ch.pending.empty() || !ch.inflight.empty()) return false;
  }
  return true;
}

bool ClusterRouter::Idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return IdleLocked();
}

bool ClusterRouter::Converged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!IdleLocked()) return false;
  for (const auto& [name, peer] : membership_.peers()) {
    if (!peer.alive) continue;
    auto it = channels_.find(name);
    if (it == channels_.end()) return false;
    if (it->second.state != ChannelState::kUp || !it->second.map_synced) {
      return false;
    }
  }
  return true;
}

PartitionMap ClusterRouter::partition_map() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_;
}

ClusterRouterStats ClusterRouter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::map<std::string, PeerHealth> ClusterRouter::peers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return membership_.peers();
}

// --- client front end -----------------------------------------------------

bool ClusterRouter::PumpClients() {
  bool progress = false;
  std::vector<uint64_t> dead;
  for (auto& [id, client] : clients_) {
    if (client.conn->Pump()) progress = true;
    Frame frame;
    while (client.conn->NextFrame(&frame)) {
      progress = true;
      HandleClientFrame(&client, frame);
    }
    // Push cumulative acks as the contiguous prefix advances; a recorded
    // token failure rides the next push (and forces one) so the client
    // learns about it instead of seeing a silently-acked sequence.
    if (client.hello_done && !client.conn->failed()) {
      auto it = sessions_.find(client.session);
      if (it != sessions_.end() &&
          (it->second.acked > client.acked_sent ||
           it->second.error_code != 0)) {
        UpdateAckFrame ack;
        ack.ack_seq = it->second.acked;
        ack.status_code = it->second.error_code;
        ack.message = it->second.error;
        it->second.error_code = 0;
        it->second.error.clear();
        client.conn->SendPayload(FrameType::kUpdateAck, ack);
        client.acked_sent = it->second.acked;
      }
    }
    if (client.conn->outbox_bytes() > 0 && !client.conn->failed()) {
      if (client.conn->Pump()) progress = true;
    }
    if (client.conn->failed()) dead.push_back(id);
  }
  for (uint64_t id : dead) {
    auto it = clients_.find(id);
    if (it == clients_.end()) continue;
    auto sc = session_conn_.find(it->second.session);
    if (sc != session_conn_.end() && sc->second == id) {
      session_conn_.erase(sc);
    }
    clients_.erase(it);
    progress = true;
  }
  return progress;
}

void ClusterRouter::HandleClientFrame(ClientConn* client, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      auto hello = HelloFrame::Decode(frame.payload);
      if (!hello.ok()) {
        client->conn->Close();
        return;
      }
      client->session = hello->client_name;
      client->hello_done = true;
      ClientSession& s = sessions_[client->session];
      session_conn_[client->session] = client->id;
      HelloReplyFrame reply;
      reply.initial_credits = options_.client_initial_credits;
      reply.last_applied_seq = s.acked;
      client->acked_sent = s.acked;
      client->conn->SendPayload(FrameType::kHelloReply, reply);
      return;
    }
    case FrameType::kUpdateBatch: {
      if (!client->hello_done) {
        client->conn->Close();
        return;
      }
      auto batch = UpdateBatchFrame::Decode(frame.payload);
      if (!batch.ok()) {
        client->conn->Close();
        return;
      }
      ++stats_.client_batches;
      ClientSession& s = sessions_[client->session];
      for (size_t i = 0; i < batch->updates.size(); ++i) {
        uint64_t seq = batch->first_seq + i;
        if (seq <= s.high_submitted) {
          ++stats_.dedup_client_tokens;
          continue;
        }
        s.high_submitted = seq;
        ++stats_.tokens_routed;
        Route(RoutedToken{std::move(batch->updates[i]), &s, seq});
      }
      // Replenish the client's send window immediately; the ack itself
      // follows once the owner nodes confirm.
      CreditGrantFrame grant;
      grant.credits = static_cast<uint32_t>(batch->updates.size());
      client->conn->SendPayload(FrameType::kCreditGrant, grant);
      return;
    }
    case FrameType::kCommand: {
      auto cmd = CommandFrame::Decode(frame.payload);
      if (!cmd.ok()) {
        client->conn->Close();
        return;
      }
      if (cmd->text == "cluster") {
        CommandReplyFrame reply;
        reply.request_id = cmd->request_id;
        reply.result = StatsStringLocked();
        client->conn->SendPayload(FrameType::kCommandReply, reply);
        return;
      }
      PendingCommand pending;
      pending.client_conn_id = client->id;
      pending.client_request_id = cmd->request_id;
      for (auto& [name, ch] : channels_) {
        if (ch.state == ChannelState::kUp && ch.conn && !ch.conn->failed()) {
          pending.waiting.insert(name);
        }
      }
      if (pending.waiting.empty()) {
        CommandReplyFrame reply;
        reply.request_id = cmd->request_id;
        reply.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
        reply.message = "no cluster members available";
        client->conn->SendPayload(FrameType::kCommandReply, reply);
        return;
      }
      uint64_t rid = next_request_id_++;
      CommandFrame fwd;
      fwd.request_id = rid;
      fwd.text = cmd->text;
      for (const std::string& name : pending.waiting) {
        channels_[name].conn->SendPayload(FrameType::kCommand, fwd);
      }
      commands_.emplace(rid, std::move(pending));
      return;
    }
    case FrameType::kEventRegister: {
      auto reg = EventRegisterFrame::Decode(frame.payload);
      CommandReplyFrame reply;
      reply.request_id = reg.ok() ? reg->request_id : 0;
      reply.status_code = static_cast<uint8_t>(StatusCode::kNotSupported);
      reply.message =
          "event subscriptions are per-node; connect to a member directly";
      client->conn->SendPayload(FrameType::kCommandReply, reply);
      return;
    }
    case FrameType::kPing: {
      auto ping = PingFrame::Decode(frame.payload);
      if (ping.ok()) client->conn->SendPayload(FrameType::kPong, *ping);
      return;
    }
    case FrameType::kGoodbye:
      client->conn->Close();
      return;
    default:
      client->conn->Close();
      return;
  }
}

void ClusterRouter::HandleCommandReply(const std::string& node,
                                       const CommandReplyFrame& reply) {
  auto it = commands_.find(reply.request_id);
  if (it == commands_.end()) return;
  PendingCommand& cmd = it->second;
  if (cmd.waiting.erase(node) == 0) return;
  if (reply.status_code != 0) {
    if (cmd.error_code == 0) {
      cmd.error_code = reply.status_code;
      cmd.error = node + ": " + reply.message;
    }
  } else if (!reply.result.empty()) {
    if (!cmd.combined.empty()) cmd.combined += "\n";
    cmd.combined += "[" + node + "] " + reply.result;
  }
  if (cmd.waiting.empty()) FinishCommand(reply.request_id);
}

void ClusterRouter::FinishCommand(uint64_t request_id) {
  auto it = commands_.find(request_id);
  if (it == commands_.end()) return;
  PendingCommand cmd = std::move(it->second);
  commands_.erase(it);
  auto client = clients_.find(cmd.client_conn_id);
  if (client == clients_.end() || client->second.conn->failed()) return;
  CommandReplyFrame reply;
  reply.request_id = cmd.client_request_id;
  reply.status_code = cmd.error_code;
  reply.message = cmd.error;
  reply.result = cmd.combined;
  client->second.conn->SendPayload(FrameType::kCommandReply, reply);
}

// --- stats ----------------------------------------------------------------

std::string ClusterRouter::StatsString() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return StatsStringLocked();
}

std::string ClusterRouter::StatsStringLocked() const {
  std::ostringstream out;
  out << "cluster: epoch=" << epoch_ << " partitions="
      << options_.config.num_partitions << " nodes=" << channels_.size()
      << " alive=" << membership_.AlivePeers().size() << "\n";
  for (const auto& [name, peer] : membership_.peers()) {
    auto it = channels_.find(name);
    uint32_t owned = 0;
    for (const std::string& owner : map_.owners) {
      if (owner == name) ++owned;
    }
    out << "  node " << name << ": " << (peer.alive ? "alive" : "dead")
        << " partitions=" << owned;
    if (it != channels_.end()) {
      const NodeChannel& ch = it->second;
      out << " acked=" << ch.acked_seq << " inflight=" << ch.inflight.size()
          << " pending=" << ch.pending.size()
          << " map_synced=" << (ch.map_synced ? 1 : 0);
    }
    out << " misses=" << peer.misses << " total_misses=" << peer.total_misses
        << " pings=" << peer.pings_sent << " pongs=" << peer.pongs_received
        << " deaths=" << peer.deaths << "\n";
  }
  out << "  routed=" << stats_.tokens_routed << " acked=" << stats_.tokens_acked
      << " batches=" << stats_.batches_sent
      << " misrouted_retries=" << stats_.misrouted_retries
      << " failed=" << stats_.tokens_failed << "\n";
  out << "  repartitions=" << stats_.repartitions
      << " failovers=" << stats_.failovers << " rejoins=" << stats_.rejoins
      << " epoch_adoptions=" << stats_.epoch_adoptions
      << " heartbeats=" << stats_.heartbeats_sent
      << " heartbeat_misses=" << membership_.total_heartbeat_misses();
  return out.str();
}

// --- threaded shell -------------------------------------------------------

void ClusterRouter::StartServing(AcceptFn accept) {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  pump_thread_ = std::thread([this] {
    auto start = std::chrono::steady_clock::now();
    while (running_.load(std::memory_order_relaxed)) {
      auto now = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      bool progress = PumpOnce(static_cast<uint64_t>(now));
      if (!progress) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
  });
  if (accept) {
    accept_thread_ = std::thread([this, accept = std::move(accept)] {
      while (running_.load(std::memory_order_relaxed)) {
        auto transport = accept();
        if (!transport.ok()) return;  // listener closed
        AddClientConn(std::move(*transport));
      }
    });
  }
}

void ClusterRouter::StopServing() {
  if (!running_.exchange(false)) return;
  if (pump_thread_.joinable()) pump_thread_.join();
  // The accept thread exits when its listener is closed by the caller;
  // join whatever is left.
  if (accept_thread_.joinable()) accept_thread_.join();
}

}  // namespace tman
