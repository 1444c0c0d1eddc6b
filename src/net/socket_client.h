#ifndef ESSDDS_NET_SOCKET_CLIENT_H_
#define ESSDDS_NET_SOCKET_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/cluster.h"
#include "net/socket_transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdds/client_core.h"
#include "sdds/lh_options.h"
#include "util/result.h"

namespace essdds::net {

/// An LH* client over real sockets: a thin driver of sdds::ClientCore,
/// which keeps the same client state as sdds::LhClient — a possibly stale
/// file image repaired by piggybacked IAMs, timeout/bounded-exponential-
/// backoff retransmission with stable request ids, stale-reply discard. The
/// driver adds frames, the poll loop, real monotonic time and the window:
/// unlike LhClient's one-op-at-a-time RoundTrip it pipelines — Submit*()
/// returns an op token immediately and up to max_inflight key operations
/// ride the connections concurrently, keyed by request id. Await()/
/// AwaitAll() drive the I/O loop.
///
/// Where LhClient aborts after max_request_retries (simulation bug = fatal),
/// a socket cluster legitimately loses servers: an op whose retries exhaust
/// completes with Status::Unavailable and the client stays usable.
///
/// Single-threaded: all calls from one thread.
class SocketClient {
 public:
  struct Options {
    ClusterMap cluster;
    /// Distinguishes this client from every other connected to the same
    /// cluster (its global site id is kClientSiteBase + client_id).
    uint32_t client_id = 0;
    /// hash_keys must match the servers; request_timeout_us /
    /// max_request_retries drive retransmission in real microseconds.
    sdds::LhOptions lh;
    /// Submit*() blocks (pumping I/O) once this many ops are in flight.
    size_t max_inflight = 1024;
  };

  /// Completion of one key operation.
  struct OpResult {
    sdds::MsgType type = sdds::MsgType::kInsertAck;
    /// Insert: an existing record was replaced. Lookup/delete: key existed.
    bool found = false;
    Bytes value;  // lookup hit payload
    /// The op's cluster-wide trace id (0 with metrics compiled out) — feed
    /// it to AdminClient::AssembleTrace / `essdds_admin trace` to follow
    /// the op across every host it touched.
    uint64_t trace_id = 0;
  };

  using ScanResult = sdds::ScanResult;

  explicit SocketClient(Options options);
  ~SocketClient();

  /// Dials every cluster host and registers this client's site id with a
  /// hello on each connection (any server a forward lands on can then
  /// answer directly).
  Status Connect();

  // --- pipelined interface ---
  Result<uint64_t> SubmitInsert(uint64_t key, Bytes value);
  Result<uint64_t> SubmitLookup(uint64_t key);
  Result<uint64_t> SubmitDelete(uint64_t key);
  /// Pumps I/O until op `token` completes; fails with Unavailable when its
  /// retries exhausted (e.g. the serving bucket's process died).
  Result<OpResult> Await(uint64_t token);
  /// Drains the whole pipeline. Returns the first failure (after all ops
  /// finished either way).
  Status AwaitAll();
  size_t inflight() const { return core_.inflight(); }

  // --- blocking convenience (submit + await) ---
  /// True when an existing record was replaced.
  Result<bool> Insert(uint64_t key, Bytes value);
  Result<Bytes> Lookup(uint64_t key);  // NotFound when absent
  Status Delete(uint64_t key);         // NotFound when absent

  /// Parallel scan. Requires an empty pipeline (call AwaitAll first).
  /// Termination over sockets cannot use the simulators' quiescence
  /// barrier; instead every kScanReply carries the serving bucket's level
  /// (Message::new_level), from which the client derives exactly which
  /// children were forwarded to and awaits them — the reply set is complete
  /// when every derived bucket has answered. Bounded by one request
  /// timeout; a dead server surfaces as Unavailable, never a hang.
  Result<ScanResult> Scan(uint64_t filter_id, Bytes filter_arg);

  const sdds::FileImage& image() const { return core_.image(); }
  sdds::SiteId site() const { return core_.site(); }
  uint64_t retry_count() const { return core_.retry_count(); }
  uint64_t stale_reply_count() const { return core_.stale_reply_count(); }
  uint64_t iam_count() const { return core_.iam_count(); }

  /// The client's own instruments (client.*_us latency histograms,
  /// client.retries / client.stale_replies / client.iams counters,
  /// net.corrupt_frames) — the client-side leg of the observability plane.
  obs::MetricRegistry& metrics() { return registry_; }
  /// The client's hop ring: kOpStart/kSend/kRetry/kStale/kOpDone hops of
  /// every op, keyed by trace id. AdminClient::AssembleTrace accepts a
  /// Snapshot of this ring as the client-side events of a cross-host trace.
  const obs::TraceRing& trace() const { return trace_; }
  /// Trace id of the most recently submitted operation (0 with metrics
  /// compiled out).
  uint64_t last_trace_id() const { return core_.last_trace_id(); }

  /// Monotonic client clock, microseconds since construction.
  uint64_t now_us() const;

 private:
  /// Frames `msg` onto the connection of the host serving msg.to.
  void Send(const sdds::Message& msg);
  /// The connection to `host`, redialing a dead one.
  Conn* HostConn(size_t host);
  Result<uint64_t> SubmitKeyOp(sdds::MsgType type, uint64_t key, Bytes value);
  /// One poll turn over all connections; decodes and dispatches replies.
  bool PumpOnce(int timeout_ms);
  /// Retransmits timed-out ops; fails those whose retries exhausted.
  void CheckTimeouts();
  /// Parks a finished op for its Await().
  void Complete(sdds::ClientCore::Completion done);

  Options options_;
  uint64_t start_ns_ = 0;
  obs::MetricRegistry registry_;
  obs::TraceRing trace_;
  sdds::ClientCore core_;
  obs::Counter* corrupt_counter_ = nullptr;

  std::vector<std::unique_ptr<Conn>> conns_;  // by host index
  Poller poller_;

  /// Completed ops awaiting their Await(); value is the result or the
  /// failure (retries exhausted).
  std::map<uint64_t, Result<OpResult>> done_;
};

}  // namespace essdds::net

#endif  // ESSDDS_NET_SOCKET_CLIENT_H_
