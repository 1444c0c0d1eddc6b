#ifndef ESSDDS_SDDS_CLIENT_CORE_H_
#define ESSDDS_SDDS_CLIENT_CORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdds/lh_options.h"
#include "sdds/message.h"
#include "util/result.h"

namespace essdds::sdds {

/// Result of a parallel scan. Hits are in ascending (bucket, key) order —
/// deterministic, and identical across scan modes and transports.
struct ScanResult {
  std::vector<WireRecord> hits;
  /// Number of distinct buckets that answered (== true file extent at scan
  /// time).
  size_t buckets_answered = 0;
};

/// The LH* client state machine, free of any transport: it holds no
/// network, no socket and no clock. Time comes in as `now_us` arguments and
/// messages to send come out as return values; a driver (LhClient over a
/// simulated Network, net::SocketClient over real sockets) moves them.
///
/// The core keeps the client's possibly stale file image and repairs it
/// from the IAMs piggybacked on forwarded replies; it allocates request and
/// trace ids, keeps every pending key op's retransmission copy and deadline,
/// retransmits with bounded exponential backoff (re-addressed under the
/// current image, same request id — servers are idempotent), discards
/// stale replies, and fails an op with Unavailable once its retries are
/// exhausted. Scans fan out over the image and collect one reply per
/// bucket; deciding when a scan is complete is the driver's job.
class ClientCore {
 public:
  /// Unanswered retransmissions of one request after which the client
  /// reports its key to the coordinator (kDeadSite) when parity groups are
  /// configured. An exhausted op is always reported.
  static constexpr uint32_t kReportDeadAfterRetries = 2;

  /// The end of one key operation.
  struct Completion {
    uint64_t request_id;
    uint64_t trace_id;
    /// The accepted reply, or Unavailable once retries are exhausted.
    Result<Message> reply;
  };

  /// What one overdue key op turned into.
  struct Expiry {
    /// In send order: a kDeadSite report when one is due, then the
    /// retransmission (absent once retries are exhausted).
    std::vector<Message> sends;
    /// Set when retries are exhausted: the op is over.
    std::optional<Completion> failed;
  };

  /// `site_of_bucket` names the site serving an LH* bucket. `retransmit`
  /// keeps a payload copy of every pending request; a synchronous network,
  /// whose replies arrive inside the send, needs none. Instruments are
  /// resolved from `metrics` (client.* histograms and counters) and hops are
  /// recorded in `trace`; both and `options` must outlive the core.
  ClientCore(SiteId site, SiteId coordinator,
             std::function<SiteId(uint64_t)> site_of_bucket,
             const LhOptions& options, obs::MetricRegistry& metrics,
             obs::TraceRing& trace, bool retransmit = true);

  /// The deadline `timeout_us` × 2^min(attempts, 6) after `now_us`. Both the
  /// shift and the addition saturate: a huge timeout pins the deadline at
  /// the far future instead of wrapping it into the past, which would turn
  /// backoff into a hot retry loop.
  static uint64_t BackoffDeadline(uint64_t now_us, uint64_t timeout_us,
                                  uint32_t attempts);

  /// Opens a key operation (kInsert/kLookup/kDelete) and returns its
  /// request, addressed under the current image. The op's id is the
  /// request's request_id.
  Message StartKeyOp(MsgType type, uint64_t key, Bytes value,
                     uint64_t now_us);

  /// Takes one delivered message. A reply to a pending key op completes it;
  /// a reply to the running scan is collected; anything else is a stale
  /// reply (the late original of a retried request, or a duplicate) and is
  /// counted and dropped.
  std::optional<Completion> OnReply(Message reply, uint64_t now_us);

  /// Retransmits or fails every key op past its deadline, in id order.
  std::vector<Expiry> Tick(uint64_t now_us);

  /// Retransmits or fails op `id` now, whatever its deadline: the driver
  /// knows its request or reply was lost.
  Expiry Expire(uint64_t id, uint64_t now_us);

  /// Opens a scan: one kScan per bucket of the image, in bucket order (each
  /// carries its bucket in `key` and the image's level for it in
  /// `assumed_level`). Only one scan runs at a time.
  std::vector<Message> StartScan(uint64_t filter_id, const Bytes& filter_arg,
                                 uint64_t now_us);
  /// The running scan's replies so far, one per bucket (the first to
  /// arrive), keyed by bucket.
  const std::map<uint64_t, Message>& scan_replies() const;
  /// Closes the running scan: its hits in ascending bucket order.
  ScanResult FinishScan(uint64_t now_us);
  /// Drops the running scan; later replies to it are stale.
  void AbandonScan() { scan_.reset(); }

  const FileImage& image() const { return image_; }
  SiteId site() const { return site_; }
  size_t inflight() const { return pending_.size(); }
  bool pending(uint64_t id) const { return pending_.count(id) != 0; }
  /// Image adjustments received (how often this client was stale).
  uint64_t iam_count() const { return iam_count_; }
  /// Requests retransmitted after a timeout or a detected loss.
  uint64_t retry_count() const { return retry_count_; }
  /// Replies discarded because their request had already completed.
  uint64_t stale_reply_count() const { return stale_reply_count_; }
  /// Trace id of the most recently started operation (0 with metrics
  /// compiled out).
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  struct PendingOp {
    MsgType type = MsgType::kInsert;
    uint64_t key = 0;
    Bytes value;  // retransmission copy
    uint64_t trace_id = 0;
    uint64_t start_us = 0;  // latency span base
    uint64_t deadline_us = 0;
    uint32_t attempts = 0;  // retransmissions so far
  };

  struct Scan {
    uint64_t request_id = 0;
    uint64_t trace_id = 0;
    uint64_t start_us = 0;
    std::map<uint64_t, Message> replies;
  };

  /// LH* client addressing under the local image.
  uint64_t AddressFor(uint64_t key) const;
  void ApplyIam(const Message& reply);
  /// The request for `op`, addressed under the current image; no payload.
  Message Request(uint64_t id, const PendingOp& op) const;
  /// Cluster-unique: the client's site id in the high word, a local
  /// sequence in the low. Always 0 with metrics compiled out (the wire's
  /// untraced sentinel).
  uint64_t NextTraceId();
  void Hop(obs::HopKind kind, const Message& msg, uint64_t now_us);
  /// Records an op's latency in its client.*_us histogram; an op past
  /// slow_op_us also gets one structured slow_op line. `key` is absent for
  /// scans; `count` is the attempts or buckets figure named `count_name`.
  void RecordLatency(MsgType type, uint64_t elapsed_us, uint64_t trace_id,
                     std::optional<uint64_t> key, const char* count_name,
                     uint64_t count);

  SiteId site_;
  SiteId coordinator_;
  std::function<SiteId(uint64_t)> site_of_bucket_;
  const LhOptions& options_;
  obs::TraceRing& trace_;
  bool retransmit_;

  FileImage image_;
  uint64_t next_request_id_ = 1;
  uint64_t next_trace_seq_ = 0;
  uint64_t last_trace_id_ = 0;
  uint64_t iam_count_ = 0;
  uint64_t retry_count_ = 0;
  uint64_t stale_reply_count_ = 0;

  // Cached instruments (see MetricRegistry's thread contract). Latencies
  // span first send to accepted reply, so retries and forwards land inside.
  // Several clients on one registry fold into the same distributions.
  obs::Histogram* insert_us_;
  obs::Histogram* lookup_us_;
  obs::Histogram* delete_us_;
  obs::Histogram* scan_us_;
  obs::Counter* retries_counter_;
  obs::Counter* stale_counter_;
  obs::Counter* iam_counter_;

  std::map<uint64_t, PendingOp> pending_;
  std::optional<Scan> scan_;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_CLIENT_CORE_H_
