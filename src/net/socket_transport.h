#ifndef ESSDDS_NET_SOCKET_TRANSPORT_H_
#define ESSDDS_NET_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "net/cluster.h"
#include "net/frame_codec.h"
#include "util/bytes.h"
#include "util/result.h"

namespace essdds::net {

/// POSIX fd helpers. All sockets in this subsystem are non-blocking; the
/// event loop below multiplexes them.
Status SetNonBlocking(int fd);

/// Binds + listens on `ep` (non-blocking). A unix endpoint unlinks a stale
/// socket file first (the common leftover of a SIGKILLed server).
Result<int> ListenOn(const Endpoint& ep);

/// Starts a non-blocking connect to `ep`. The returned fd may still be
/// connecting (EINPROGRESS); writes queue until the socket turns writable.
Result<int> DialStart(const Endpoint& ep);

/// Blocking connect with a deadline: DialStart + poll for writability +
/// SO_ERROR check. Used by clients at startup, where a synchronous failure
/// ("connection refused") beats queueing into the void.
Result<int> DialBlocking(const Endpoint& ep, int timeout_ms);

/// Connect deadline of the blocking clients (SocketClient, AdminClient).
inline constexpr int kDialTimeoutMs = 5000;

/// One entry of a poll round.
struct PollEntry {
  int fd = -1;
  bool want_read = false;
  bool want_write = false;
  // Filled by Poller::Wait:
  bool readable = false;
  bool writable = false;
  bool error = false;  // POLLERR/POLLHUP/POLLNVAL
};

/// Readiness multiplexer behind a minimal abstraction (poll(2) today; the
/// interface is the subset an epoll backend would also satisfy). Wait()
/// fills the readiness flags of `entries` and returns how many fds are
/// ready, 0 on timeout.
class Poller {
 public:
  int Wait(std::vector<PollEntry>& entries, int timeout_ms);
};

/// One framed, non-blocking connection: a read buffer feeding a
/// FrameDecoder, and a bounded write queue flushed as the socket accepts
/// bytes. Ownership of the fd is the Conn's; the destructor closes it.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  bool dead() const { return dead_; }

  /// Drains the socket's receive buffer into the frame decoder. Returns
  /// false when the connection died (EOF or a hard error); the caller then
  /// discards the Conn after collecting any frames already decoded.
  bool ReadReady();

  /// Next complete frame, if any. A Corruption result means the peer sent
  /// garbage: the caller logs and drops the connection (a byte stream has
  /// no frame resync).
  Result<bool> NextFrame(Frame* out);

  /// Queues one encoded frame for writing and opportunistically flushes.
  void EnqueueFrame(Bytes frame);

  /// Writes queued bytes until the socket blocks. Returns false when the
  /// connection died.
  bool Flush();

  bool wants_write() const { return !write_queue_.empty(); }
  /// True once the frame stream turned corrupt (bad magic/kind/length/CRC).
  /// Lets the event loop count each corrupt stream exactly once — NextFrame
  /// keeps repeating the Corruption until the connection is reaped.
  bool stream_corrupt() const { return decoder_.corrupt(); }
  /// Bytes queued but not yet written — the backpressure signal: the event
  /// loop stops reading from a peer whose write queue is over budget.
  size_t queued_bytes() const { return queued_bytes_; }

 private:
  int fd_;
  bool dead_ = false;
  FrameDecoder decoder_;
  std::deque<Bytes> write_queue_;
  size_t write_offset_ = 0;  // bytes of write_queue_.front() already sent
  size_t queued_bytes_ = 0;
};

}  // namespace essdds::net

#endif  // ESSDDS_NET_SOCKET_TRANSPORT_H_
