#ifndef ESSDDS_NET_ADMIN_H_
#define ESSDDS_NET_ADMIN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/cluster.h"
#include "net/frame_codec.h"
#include "net/socket_transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdds/network.h"
#include "util/bytes.h"
#include "util/result.h"

namespace essdds::net {

// ---------------------------------------------------------------------------
// Admin pull protocol (DESIGN.md §17). An admin connection is a plain framed
// socket connection that never sends kHello: the serving host treats it as
// a pull-only side channel, answering each kAdminMetricsPull / kAdminTracePull
// / kAdminHealth with exactly one kAdminReply on the same connection, in
// order — replies correlate by FIFO. The payloads below are host-neutral
// (big-endian, bounds-checked) and versioned, so an admin binary can scrape
// a slightly newer cluster without misparsing.
// ---------------------------------------------------------------------------

/// Admin metrics wire version (first byte of a kAdminMetricsPull reply body).
inline constexpr uint8_t kAdminMetricsVersion = 1;

/// One host's full telemetry snapshot as decoded from a metrics reply.
/// Plain data — usable in ESSDDS_METRICS=OFF builds too (an OFF admin
/// binary still decodes and displays whatever an ON host reports; its own
/// *instruments* are the stubs, not the wire).
struct HostMetrics {
  uint32_t host_index = 0;
  uint64_t now_us = 0;  // host monotonic clock at snapshot time
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, obs::HistogramState>> histograms;
  sdds::NetworkStats stats;
};

/// One host's trace-ring slice (events already filtered to the pulled id;
/// id 0 pulls everything still in the ring).
struct HostTrace {
  uint32_t host_index = 0;
  uint64_t now_us = 0;
  uint64_t overwritten = 0;  // ring truncation indicator
  std::vector<obs::TraceEvent> events;
};

/// One host's health summary: a self-describing JSON object built by
/// BucketHost from live structures (works fully under METRICS=OFF — health
/// is operational state, not instruments).
struct HostHealth {
  uint32_t host_index = 0;
  uint64_t now_us = 0;
  std::string json;
};

// --- wire codecs. Junk in -> Corruption out, like every decoder here. ---

/// Reply body for kAdminMetricsPull: the registry's full snapshot plus the
/// flat NetworkStats, sparse-encoded (histograms ship only nonzero buckets).
Bytes EncodeMetricsBody(const obs::MetricRegistry& registry,
                        const sdds::NetworkStats& stats);
Status DecodeMetricsBody(ByteSpan body, HostMetrics* out);

/// Reply body for kAdminTracePull: ring overwrite count + matching events.
Bytes EncodeTraceBody(const obs::TraceRing& ring, uint64_t trace_id);
Status DecodeTraceBody(ByteSpan body, HostTrace* out);

/// The kAdminReply envelope wrapped around every reply body:
///   u8 original pull kind | u32 host index | u64 host now_us | body.
Bytes EncodeAdminReply(FrameKind orig, uint32_t host_index, uint64_t now_us,
                       ByteSpan body);
struct AdminReply {
  FrameKind orig = FrameKind::kAdminMetricsPull;
  uint32_t host_index = 0;
  uint64_t now_us = 0;
  Bytes body;
};
Result<AdminReply> DecodeAdminReply(ByteSpan payload);

// ---------------------------------------------------------------------------
// Cluster-wide views
// ---------------------------------------------------------------------------

/// The merged cluster metrics view. Per-host snapshots are preserved
/// verbatim; the cluster section folds them together — counters and
/// NetworkStats fields sum (each host accounts only its own sends, so the
/// sum is the cluster total with no double counting), gauges sum (they are
/// record/byte occupancy numbers, where the cluster total is the meaningful
/// aggregate), histograms merge bucket-wise via Histogram::MergeState (the
/// cross-process form of MergeFrom), so cluster p50/p95/p99 come from the
/// union of all hosts' samples.
struct ClusterMetrics {
  std::vector<HostMetrics> hosts;

  /// Merged flat stats across all hosts.
  sdds::NetworkStats MergedStats() const;

  /// {"hosts":[{host_index,now_us,net,metrics},...],
  ///  "cluster":{host_count,net,metrics}} — `net` is NetworkStats::ToJson,
  ///  `metrics` the registry JSON ({counters,gauges,histograms with
  ///  count/sum/max/p50/p95/p99}). Rendered from the plain snapshots, so an
  ///  OFF-built admin binary renders an ON cluster's numbers identically.
  std::string ToJson() const;
};

/// One hop of an assembled cross-host trace: which host's ring it came from
/// (-1 = the pulling client's own local ring, which is not a cluster host).
struct ClusterHop {
  int32_t host = -1;
  obs::TraceEvent ev;
};

/// A causally ordered cross-host timeline for one trace id.
struct AssembledTrace {
  uint64_t trace_id = 0;
  std::vector<ClusterHop> hops;
  /// False when the hop graph had a cycle (clock skew artifacts or ring
  /// truncation): the tail of `hops` is then in source order, not causal
  /// order.
  bool ordered = true;
  /// Sum of ring overwrite counts across the pulled sources — nonzero means
  /// early hops may be missing.
  uint64_t overwritten = 0;
};

/// Stitches per-source event lists into one causal timeline. Ordering
/// rules (DESIGN.md §17): (1) events from the same source keep their ring
/// (program) order — one ring is one thread's history; (2) every kSend is
/// ordered before the kDeliver it caused, where cause is the k-th deliver
/// matching the k-th send of the same (request_id, from, to, msg_type)
/// signature — per-connection FIFO makes ordinal matching exact; (3) the
/// remaining freedom is resolved deterministically by (source, index), so
/// the same pull always renders the same timeline. Cross-host clocks are
/// never compared — only edges order events across sources.
AssembledTrace StitchTrace(
    uint64_t trace_id,
    const std::vector<std::pair<int32_t, std::vector<obs::TraceEvent>>>&
        sources);

// ---------------------------------------------------------------------------
// AdminClient
// ---------------------------------------------------------------------------

/// Scrapes a live socket cluster: dials every host in the ClusterMap, fans
/// a pull to each, and merges the replies into one cluster view. Strictly
/// read-only — admin connections carry no kHello and can never be addressed
/// by protocol messages. Single-threaded, blocking with deadlines; built
/// for operator tooling (essdds_admin, the shell), not the data path.
class AdminClient {
 public:
  struct Options {
    ClusterMap cluster;
  };

  explicit AdminClient(Options options);
  ~AdminClient();

  AdminClient(const AdminClient&) = delete;
  AdminClient& operator=(const AdminClient&) = delete;

  /// Dials every host. Fails if any host is unreachable (a partial scrape
  /// would silently under-report the cluster).
  Status Connect();

  /// Pulls + merges every host's metrics.
  Result<ClusterMetrics> Metrics();

  /// Pulls every host's health JSON.
  Result<std::vector<HostHealth>> Health();

  /// Pulls every host's trace-ring slice for `trace_id` (0 = full rings).
  Result<std::vector<HostTrace>> Trace(uint64_t trace_id);

  /// Pulls all rings and stitches one causal timeline for `trace_id`.
  /// `client_events` lets a caller splice in its own local ring (e.g. the
  /// shell's SocketClient hops) as source -1.
  Result<AssembledTrace> AssembleTrace(
      uint64_t trace_id,
      const std::vector<obs::TraceEvent>& client_events = {});

  size_t host_count() const { return options_.cluster.hosts.size(); }

 private:
  /// One pull round-trip against host `host`: send the frame, block (with
  /// deadline) for the kAdminReply, decode the envelope.
  Result<AdminReply> RoundTrip(size_t host, FrameKind kind, ByteSpan payload);

  Options options_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// Renders an assembled trace as human-readable text, one hop per line,
/// prefixed with the owning host ("client" for source -1).
std::string FormatAssembledTrace(const AssembledTrace& trace);

}  // namespace essdds::net

#endif  // ESSDDS_NET_ADMIN_H_
