#include "cluster/node.h"

#include <algorithm>

#include "util/codec.h"
#include "util/logging.h"

namespace tman {

ClusterNode::ClusterNode(TriggerManager* tman, ClusterNodeOptions options)
    : tman_(tman), options_(std::move(options)) {
  durable_epoch_ = DecodeEpoch(tman_->RecoveredMeta());
  // A node that crashed as a cluster member and recovered pending tokens
  // must wait for the router's fences before processing them: any of them
  // may have been re-routed to another owner while this node was down.
  // (TriggerManager::Open() already paused the engine for this case; the
  // ApplyHoldLocked here keeps the node's view and the queue gate in
  // lockstep either way.)
  std::lock_guard<std::mutex> lock(mutex_);
  hold_ = durable_epoch_ > 0 && tman_->WalPendingTokens() > 0;
  ApplyHoldLocked();
}

uint64_t ClusterNode::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.epoch;
}

bool ClusterNode::processing_held() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hold_ || lease_hold_;
}

void ClusterNode::ApplyHoldLocked() {
  if (hold_ || lease_hold_) {
    tman_->PauseProcessing();
  } else {
    tman_->ResumeProcessing();
  }
}

void ClusterNode::OnRouterChannelLost() {
  // Losing the router's channel means it may be declaring us dead and
  // re-routing our staged-but-unfired tokens right now (false-death
  // window). Stop firing until it readmits us: the next map install
  // carries the fences that tell us which staged tokens were re-routed
  // while we were presumed dead. The router always pushes a map on
  // reconnect (kFencing state), so the hold is released on rejoin.
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.epoch > 0 && !hold_) {
    hold_ = true;
    ApplyHoldLocked();
  }
}

void ClusterNode::NoteRouterTraffic(uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_router_ms_ = std::max(last_router_ms_, now_ms);
  // Traffic proves the router had not failed us over as of sending it
  // (a failover resets the channel first), so a lease self-hold can
  // lift; a fence-pending hold_ lifts only with the map that carries
  // the fences.
  if (lease_hold_) {
    lease_hold_ = false;
    ApplyHoldLocked();
  }
}

void ClusterNode::TickRouterLease(uint64_t now_ms) {
  if (options_.router_lease_ms == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.epoch == 0 || lease_hold_) return;  // not an admitted member
  if (now_ms < last_router_ms_ + options_.router_lease_ms) return;
  // No router traffic for a whole verdict window: over a mute partition
  // we would never see the channel close, but the router may already be
  // re-routing our staged tokens. Self-hold until traffic resumes or a
  // fresh map readmits us.
  lease_hold_ = true;
  ++stats_.lease_holds;
  ApplyHoldLocked();
}

Status ClusterNode::AdmitToken(const UpdateDescriptor& token) {
  uint32_t partition = TokenPartition(token, options_.config);
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.Owns(options_.name, partition)) return Status::OK();
  return Status::Unavailable("partition " + std::to_string(partition) +
                             " not owned by " + options_.name + " at epoch " +
                             std::to_string(map_.epoch));
}

PartitionMapAckFrame ClusterNode::HandlePartitionMap(
    const PartitionMapFrame& frame) {
  PartitionMapAckFrame ack;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ack.prior_epoch = durable_epoch_;
    if (frame.epoch < durable_epoch_) {
      // A map older than what this node durably installed can only come
      // from a router behind our history; refusing it keeps the fence
      // guarantees of the newer epoch intact.
      ack.epoch = map_.epoch;
      ack.status_code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
      ack.message = "stale partition map epoch " +
                    std::to_string(frame.epoch) + " < durable " +
                    std::to_string(durable_epoch_);
      return ack;
    }
  }

  // Fence recovered tokens the router already re-routed elsewhere. Must
  // happen before the map is visible (and before processing resumes).
  std::map<std::string, uint64_t> fences(frame.fences.begin(),
                                         frame.fences.end());
  uint64_t fenced =
      fences.empty() ? 0 : tman_->FenceWalSessions(fences);

  // Persist the epoch before acking: once the router hears the ack it
  // will route on the new map, and a crash right after must not come
  // back believing an older epoch.
  if (tman_->wal_enabled()) {
    Status persisted = tman_->SetDurableMeta(EncodeEpoch(frame.epoch));
    if (!persisted.ok()) {
      ack.epoch = epoch();
      ack.status_code = static_cast<uint8_t>(persisted.code());
      ack.message = "epoch persist failed: " + persisted.message();
      return ack;
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  map_.epoch = frame.epoch;
  map_.owners = frame.owners;
  durable_epoch_ = frame.epoch;
  // The map carries the authoritative fences: both the fence-pending
  // hold and a lease self-hold can lift, and processing resumes.
  hold_ = false;
  lease_hold_ = false;
  ApplyHoldLocked();
  ++stats_.maps_installed;
  stats_.tokens_fenced += fenced;
  ack.epoch = frame.epoch;
  ack.fenced_tokens = fenced;
  return ack;
}

void ClusterNode::AddConnection(std::unique_ptr<PollableTransport> transport) {
  NodeConn conn;
  conn.conn = std::make_unique<FrameConn>(std::move(transport), options_.io);
  conns_.push_back(std::move(conn));
}

bool ClusterNode::Pump(uint64_t now_ms) {
  bool progress = false;
  for (auto& conn : conns_) {
    if (conn.conn->Pump()) progress = true;
    Frame frame;
    while (conn.conn->NextFrame(&frame)) {
      progress = true;
      Status handled = HandleFrame(&conn, frame);
      if (conn.is_router && now_ms > 0) NoteRouterTraffic(now_ms);
      if (!handled.ok()) {
        conn.conn->Close();
        break;
      }
    }
    // Acks for the batches just staged leave now, before the caller pops
    // a task: a token that fires before its ack is on the wire could be
    // re-routed (and fire again elsewhere) if the router declared this
    // node dead in between.
    if (conn.conn->Flush()) progress = true;
  }
  size_t before = conns_.size();
  bool router_lost = false;
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [&router_lost](const NodeConn& c) {
                                if (!c.conn->failed()) return false;
                                if (c.is_router) router_lost = true;
                                return true;
                              }),
               conns_.end());
  if (conns_.size() != before) progress = true;
  if (router_lost) OnRouterChannelLost();
  if (now_ms > 0) TickRouterLease(now_ms);
  return progress;
}

Status ClusterNode::HandleFrame(NodeConn* conn, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      TMAN_ASSIGN_OR_RETURN(HelloFrame hello,
                            HelloFrame::Decode(frame.payload));
      conn->session = hello.client_name;
      conn->hello_done = true;
      conn->last_applied = tman_->RecoveredSessionSeq(conn->session);
      HelloReplyFrame reply;
      reply.initial_credits = options_.initial_credits;
      reply.last_applied_seq = conn->last_applied;
      conn->conn->SendPayload(FrameType::kHelloReply, reply);
      return Status::OK();
    }
    case FrameType::kUpdateBatch: {
      if (!conn->hello_done) {
        return Status::InvalidArgument("update batch before hello");
      }
      TMAN_ASSIGN_OR_RETURN(UpdateBatchFrame batch,
                            UpdateBatchFrame::Decode(frame.payload));
      HandleUpdateBatch(conn, std::move(batch));
      return Status::OK();
    }
    case FrameType::kPartitionMap: {
      TMAN_ASSIGN_OR_RETURN(PartitionMapFrame map,
                            PartitionMapFrame::Decode(frame.payload));
      conn->is_router = true;  // only the router installs maps
      PartitionMapAckFrame ack = HandlePartitionMap(map);
      conn->conn->SendPayload(FrameType::kPartitionMapAck, ack);
      return Status::OK();
    }
    case FrameType::kCommand: {
      TMAN_ASSIGN_OR_RETURN(CommandFrame cmd,
                            CommandFrame::Decode(frame.payload));
      CommandReplyFrame reply;
      reply.request_id = cmd.request_id;
      auto result = tman_->ExecuteCommand(cmd.text);
      if (result.ok()) {
        reply.result = *result;
      } else {
        reply.status_code = static_cast<uint8_t>(result.status().code());
        reply.message = result.status().message();
      }
      conn->conn->SendPayload(FrameType::kCommandReply, reply);
      return Status::OK();
    }
    case FrameType::kPing: {
      TMAN_ASSIGN_OR_RETURN(PingFrame ping, PingFrame::Decode(frame.payload));
      conn->conn->SendPayload(FrameType::kPong, ping);
      return Status::OK();
    }
    case FrameType::kGoodbye:
      return Status::Aborted("peer said goodbye");
    default:
      return Status::InvalidArgument(
          std::string("unexpected frame: ") + std::string(FrameTypeName(frame.type)));
  }
}

void ClusterNode::HandleUpdateBatch(NodeConn* conn, UpdateBatchFrame batch) {
  UpdateAckFrame ack;
  ack.credits = static_cast<uint32_t>(batch.updates.size());

  // Dedup against the session high-water mark (resends after reconnect).
  std::vector<UpdateDescriptor> accepted;
  BatchStamp stamp;
  stamp.session = conn->session;
  uint64_t deduped = 0;
  for (size_t i = 0; i < batch.updates.size(); ++i) {
    uint64_t seq = batch.first_seq + i;
    if (seq <= conn->last_applied) {
      ++deduped;
      continue;
    }
    accepted.push_back(std::move(batch.updates[i]));
    stamp.seqs.push_back(seq);
  }
  uint64_t batch_high = batch.updates.empty()
                            ? conn->last_applied
                            : batch.first_seq + batch.updates.size() - 1;
  stamp.ack_seq = std::max(conn->last_applied, batch_high);

  if (accepted.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.tokens_deduped += deduped;
    ack.ack_seq = conn->last_applied;
    conn->conn->SendPayload(FrameType::kUpdateAck, ack);
    return;
  }

  // Ownership check — all-or-nothing: one misrouted token rejects the
  // whole batch with no session-sequence advance, so the router can
  // re-route it intact (sequence gaps are harmless; dedup is
  // high-water-based).
  for (const UpdateDescriptor& token : accepted) {
    Status admit = AdmitToken(token);
    if (!admit.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.batches_rejected;
      ack.ack_seq = conn->last_applied;
      ack.status_code = static_cast<uint8_t>(admit.code());
      ack.message = admit.message();
      conn->conn->SendPayload(FrameType::kUpdateAck, ack);
      return;
    }
  }

  Status submitted = tman_->SubmitUpdateBatch(accepted, nullptr, &stamp);
  if (!submitted.ok()) {
    // Durable contract: nothing staged, no sequence advance. The router
    // resends the identical batch.
    std::lock_guard<std::mutex> lock(mutex_);
    ack.ack_seq = conn->last_applied;
    ack.status_code = static_cast<uint8_t>(submitted.code());
    ack.message = submitted.message();
    conn->conn->SendPayload(FrameType::kUpdateAck, ack);
    return;
  }
  conn->last_applied = stamp.ack_seq;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.batches_accepted;
    stats_.tokens_applied += accepted.size();
    stats_.tokens_deduped += deduped;
  }
  ack.ack_seq = conn->last_applied;
  conn->conn->SendPayload(FrameType::kUpdateAck, ack);
}

std::string ClusterNode::EncodeEpoch(uint64_t epoch) {
  std::string blob;
  PutU64(&blob, epoch);
  return blob;
}

uint64_t ClusterNode::DecodeEpoch(const std::string& blob) {
  size_t pos = 0;
  uint64_t epoch = 0;
  if (!GetU64(blob, &pos, &epoch)) return 0;
  return epoch;
}

ClusterNodeStats ClusterNode::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace tman
