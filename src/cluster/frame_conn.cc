#include "cluster/frame_conn.h"

#include <algorithm>

namespace tman {

namespace {
constexpr size_t kReadChunk = 16 * 1024;
}  // namespace

FrameConn::FrameConn(std::unique_ptr<PollableTransport> transport,
                     FrameIoOptions options)
    : transport_(std::move(transport)), options_(options) {}

void FrameConn::Send(FrameType type, std::string_view payload) {
  if (failed_) return;
  EncodeFrame(type, payload, &outbox_);
}

bool FrameConn::Flush() {
  if (failed_) return false;
  bool progress = false;
  // Drain the outbox as far as the peer's buffer allows.
  while (outbox_pos_ < outbox_.size()) {
    auto wrote = transport_->TryWrite(
        std::string_view(outbox_).substr(outbox_pos_));
    if (!wrote.ok()) {
      Fail(wrote.status());
      return progress;
    }
    if (*wrote == 0) break;  // peer buffer full; retry next pump
    outbox_pos_ += *wrote;
    progress = true;
  }
  if (outbox_pos_ == outbox_.size() && outbox_pos_ > 0) {
    outbox_.clear();
    outbox_pos_ = 0;
  }
  return progress;
}

bool FrameConn::Pump() {
  bool progress = Flush();
  if (failed_) return progress;

  // Pull whatever is readable and decode complete frames.
  char buf[kReadChunk];
  while (!saw_eof_ && transport_->ReadReady()) {
    auto n = transport_->ReadSome(buf, sizeof(buf));
    if (!n.ok()) {
      Fail(n.status());
      return progress;
    }
    if (*n == 0) {
      saw_eof_ = true;
      break;
    }
    inbox_.append(buf, *n);
    progress = true;
  }
  size_t frames_before = frames_.size();
  DecodeInbox();
  if (frames_.size() != frames_before) progress = true;
  if (saw_eof_ && !failed_) {
    // Clean end-of-stream: report it as a failure only once any fully
    // received frames have been decoded (they remain poppable).
    Fail(Status::Aborted("connection closed"));
  }
  return progress;
}

void FrameConn::DecodeInbox() {
  for (;;) {
    size_t available = inbox_.size() - inbox_pos_;
    if (available < kFrameHeaderSize) break;
    auto header = DecodeFrameHeader(
        std::string_view(inbox_).substr(inbox_pos_, kFrameHeaderSize),
        options_.max_payload);
    if (!header.ok()) {
      Fail(header.status());
      return;
    }
    if (available < kFrameHeaderSize + header->payload_len) break;
    std::string_view payload = std::string_view(inbox_).substr(
        inbox_pos_ + kFrameHeaderSize, header->payload_len);
    Status verified = VerifyFramePayload(*header, payload);
    if (!verified.ok()) {
      Fail(std::move(verified));
      return;
    }
    Frame frame;
    frame.type = header->type;
    frame.payload = std::string(payload);
    frames_.push_back(std::move(frame));
    inbox_pos_ += kFrameHeaderSize + header->payload_len;
  }
  // Compact once the consumed prefix dominates.
  if (inbox_pos_ > kReadChunk && inbox_pos_ * 2 > inbox_.size()) {
    inbox_.erase(0, inbox_pos_);
    inbox_pos_ = 0;
  }
}

bool FrameConn::NextFrame(Frame* out) {
  if (frames_.empty()) return false;
  *out = std::move(frames_.front());
  frames_.pop_front();
  return true;
}

void FrameConn::Fail(Status status) {
  if (failed_) return;
  failed_ = true;
  status_ = std::move(status);
  transport_->Close();
}

void FrameConn::Close() {
  Fail(Status::Aborted("closed by owner"));
}

}  // namespace tman
