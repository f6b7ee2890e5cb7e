#ifndef TRIGGERMAN_CLUSTER_FRAME_CONN_H_
#define TRIGGERMAN_CLUSTER_FRAME_CONN_H_

#include <deque>
#include <memory>
#include <string>

#include "ipc/transport.h"
#include "ipc/wire_format.h"

namespace tman {

/// A framed connection over a PollableTransport, driven entirely by
/// non-blocking Pump() calls: outbound frames accumulate in an outbox and
/// drain as the peer's buffer accepts bytes; inbound bytes accumulate and
/// decode into whole frames as they arrive. This is the I/O building
/// block of the cluster subsystem's single-threaded pump loops — under
/// the deterministic scheduler one Pump() is one bounded actor step, so
/// no schedule can block on transport I/O.
///
/// Not thread-safe: one owner pumps; the threaded shells serialize access
/// with their own mutex.
class FrameConn {
 public:
  explicit FrameConn(std::unique_ptr<PollableTransport> transport,
                     FrameIoOptions options = {});

  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  /// Queues one frame in the outbox (never blocks).
  void Send(FrameType type, std::string_view payload);

  template <typename Payload>
  void SendPayload(FrameType type, const Payload& payload_struct) {
    std::string payload;
    payload_struct.Encode(&payload);
    Send(type, payload);
  }

  /// Pushes outbox bytes and decodes available inbound frames. Returns
  /// true if any bytes moved or any frame became available. After a
  /// transport error or corrupt stream, failed() is true and the
  /// connection is closed.
  bool Pump();

  /// Pushes outbox bytes only (the first half of Pump). Returns true if
  /// any bytes moved.
  bool Flush();

  /// Pops the next decoded frame; false when none is pending.
  bool NextFrame(Frame* out);

  /// True when the connection is down (peer closed, transport error, or
  /// protocol corruption). Decoded frames may still be pending.
  bool failed() const { return failed_; }
  const Status& status() const { return status_; }

  /// Bytes waiting in the outbox (backpressure signal).
  size_t outbox_bytes() const { return outbox_.size() - outbox_pos_; }

  void Close();

  std::string peer() const { return transport_->peer(); }

 private:
  void Fail(Status status);
  void DecodeInbox();

  std::unique_ptr<PollableTransport> transport_;
  FrameIoOptions options_;
  std::string outbox_;
  size_t outbox_pos_ = 0;
  std::string inbox_;
  size_t inbox_pos_ = 0;
  std::deque<Frame> frames_;
  bool failed_ = false;
  bool saw_eof_ = false;
  Status status_;
};

}  // namespace tman

#endif  // TRIGGERMAN_CLUSTER_FRAME_CONN_H_
