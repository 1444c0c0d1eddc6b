#ifndef ESSDDS_SDDS_NETWORK_H_
#define ESSDDS_SDDS_NETWORK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdds/message.h"
#include "sdds/scan_executor.h"
#include "util/logging.h"

namespace essdds::sdds {

class Network;

/// A node of the simulated multicomputer. Concrete sites are LH* bucket
/// servers, the split coordinator, and clients.
class Site {
 public:
  virtual ~Site() = default;

  /// Handles one delivered message. The site may send further messages
  /// through `net` (on a synchronous network delivery is re-entrant; on an
  /// event network the sends are scheduled and delivered by later Pump()
  /// calls). The network owns `msg` for the duration of the delivery: the
  /// handler may move out of its payload fields (bulk record transfers do,
  /// to avoid deep copies).
  virtual void OnMessage(Message& msg, Network& net) = 0;
};

/// Per-network traffic statistics. The paper's performance story for SDDS
/// is counted in messages, not wall-clock time; this is what the simulator
/// measures. `total_bytes` sums Message::EncodedSize() per send: the
/// message bytes the socket tier frames (without its frame header), so
/// simulated and socket counters describe one wire.
///
/// Accounting under fault injection: `total_messages`/`total_bytes`/
/// `per_type` count every protocol send exactly once — a message the
/// network then drops stays counted (it was sent; `dropped_messages` says
/// what never arrived), while the extra copy of a duplicated message is
/// counted ONLY in `duplicated_messages` (a simulator artifact, not a
/// protocol send). Client retransmissions are real protocol sends: they
/// appear in the totals and additionally in `retried_messages`, so
/// `total_messages - retried_messages` stays comparable to a fault-free
/// run.
struct NetworkStats {
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
  uint64_t forwarded_messages = 0;  // messages with hops > 0
  uint64_t dropped_messages = 0;     // sends the network discarded (faults)
  uint64_t duplicated_messages = 0;  // extra fault copies (not in totals)
  uint64_t retried_messages = 0;     // client retransmissions (in totals)
  // Reliable link layer (EventNetwork protocol_faults()): frame resends and
  // receiver acks. Neither is in the totals — a production transport hides
  // both below the messaging API, and totals must stay comparable to a
  // fault-free run.
  uint64_t retransmitted_frames = 0;
  uint64_t link_acks = 0;
  std::map<MsgType, uint64_t> per_type;

  /// Human-readable report: headline counters on the first line, then the
  /// per-type breakdown as aligned columns in wire-enum order. Fault
  /// counters appear only when any fired, so fault-free output stays terse.
  std::string ToString() const;

  /// Machine-readable form of the same numbers (used by the shell's
  /// --metrics export and the benches).
  std::string ToJson() const;

  friend bool operator==(const NetworkStats&, const NetworkStats&) = default;
};

/// The delivery contract every simulated multicomputer implements: sites
/// register, Send() accounts the traffic and (eventually) invokes the
/// destination's OnMessage, and the batch of queued bucket scans runs off
/// the messaging path. Two implementations exist: the synchronous SimNetwork
/// below (Send delivers re-entrantly before returning — deterministic,
/// zero-latency) and the discrete-event EventNetwork (event_network.h:
/// seeded latency schedule, reordering, fault injection; deliveries happen
/// when the requester pumps).
class Network {
 public:
  Network() = default;
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a site and returns its id. The site must outlive the
  /// network.
  virtual SiteId Register(Site* site) = 0;

  /// Accepts `msg` for delivery to msg.to, charging the traffic counters.
  /// Synchronous networks run the destination's OnMessage before returning;
  /// event networks schedule it.
  virtual void Send(Message msg) = 0;

  /// Delivers the next pending event, advancing virtual time; false when
  /// nothing is in flight. Synchronous networks are always idle: a request
  /// sender finds its reply waiting the moment Send returns.
  virtual bool Pump() { return false; }

  /// Delivers everything in flight (a quiescence barrier). No-op on
  /// synchronous networks.
  void PumpUntilIdle() {
    while (Pump()) {
    }
  }

  /// Virtual clock in microseconds; synchronous networks stay at 0.
  virtual uint64_t now_us() const { return 0; }

  /// Schedules `msg` for direct, fault-free delivery to msg.to after
  /// `delay_us` — a site-private timer (the recovery coordinator arms its
  /// probe and rebuild timeouts with these). Only meaningful where time
  /// advances; the synchronous base has no timeline to schedule on, and
  /// nothing that runs on it (no kills, no recovery) ever arms one.
  virtual void ScheduleTimer(Message msg, uint64_t delay_us) {
    (void)msg;
    (void)delay_us;
    ESSDDS_CHECK(false) << "timers require an event network";
  }

  /// True when delivery is scheduled rather than re-entrant — i.e. replies
  /// can be late, lost, or duplicated, and clients must keep retransmission
  /// state.
  virtual bool asynchronous() const { return false; }

  /// Number of registered sites.
  virtual size_t site_count() const = 0;

  const NetworkStats& stats() const { return stats_; }

  /// The one reset point for every observable number: the flat NetworkStats
  /// and the whole metric registry (counters, gauges, histograms) zero
  /// together, and the trace ring restarts, so phase-local measurements
  /// (e.g. between bench phases) never leak across the boundary. Instrument
  /// references cached by sites/clients stay valid.
  void ResetStats() {
    stats_ = NetworkStats{};
    metrics_.ResetAll();
    trace_.Clear();
  }

  // --- observability (src/obs) ---

  /// The network's metric registry and trace ring: one of each per
  /// simulated multicomputer, shared by every site, client, and the scan
  /// pool. Stateless no-op stubs when built with -DESSDDS_METRICS=OFF.
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }
  obs::TraceRing& trace() { return trace_; }
  const obs::TraceRing& trace() const { return trace_; }

  /// Records one hop of `msg` in the trace ring at the current virtual
  /// time. Called on the driver thread only (network implementations at
  /// delivery/fault decisions, clients at op boundaries).
  void TraceHop(obs::HopKind kind, const Message& msg) {
    if (!obs::kMetricsEnabled) return;
    trace_.Record({now_us(), msg.trace_id, msg.request_id, msg.key, msg.from,
                   msg.to, static_cast<uint8_t>(msg.type), kind});
  }

  /// Human-readable causal dump of the ring, filtered to one trace id
  /// (0 = everything recorded).
  std::string TraceDump(uint64_t trace_id = 0) const;

  /// Called by clients when they retransmit a timed-out request (the resend
  /// itself goes through Send and is charged there).
  void NoteRetry() { ++stats_.retried_messages; }

  // --- bucket scans ---

  /// Worker threads for scan evaluation; 0 and 1 run every batch serially
  /// on the draining thread. Resizing discards the current pool (workers
  /// join); the next batch uses a fresh one at the new size.
  void set_scan_threads(size_t threads) {
    scan_threads_ = threads;
    scan_pool_.reset();
  }
  size_t scan_threads() const { return scan_threads_; }

  /// Bucket record count above which a scan task is split into contiguous
  /// key-range shards evaluated concurrently (see LhOptions).
  void set_scan_shard_min_records(size_t n) { scan_shard_min_records_ = n; }
  size_t scan_shard_min_records() const { return scan_shard_min_records_; }

  /// Queues one bucket's evaluation of a scan of `filter` with argument
  /// `arg` (bucket servers, on kScan). The scan is compiled here, once:
  /// every task of the pending batch with the same filter and argument
  /// shares one Prepare()d instance.
  void EnqueueScanTask(const ScanFilter& filter, ByteSpan arg, ScanTask task);

  /// Evaluates all queued scan tasks on the persistent worker pool and
  /// sends their replies in ascending bucket order. Scan initiators call
  /// this after fanning out their kScan messages, and the socket tier once
  /// per poll turn; a no-op when nothing is queued.
  void DrainDeferredScans();

  /// Evaluates the queued tasks of `bucket` immediately, on the calling
  /// thread. Bucket servers call this before mutating their records: a
  /// queued task borrows the store's buffers, so it must capture its hits
  /// while the content still matches what the bucket held at kScan
  /// delivery. The reply is kept and sent by the drain as usual. Inline:
  /// every record mutation pays only the empty-queue check.
  void ResolveDeferredScans(uint64_t bucket) {
    for (ScanTask& task : pending_scans_) {
      if (task.bucket == bucket) ExecuteScanTask(task);
    }
  }

  /// True while scan tasks wait for a drain.
  bool scans_pending() const { return !pending_scans_.empty(); }

  /// The network's persistent scan worker pool, created at scan_threads()
  /// size on first use. Workers start lazily on the first parallel batch.
  ScanWorkerPool& scan_pool();

 protected:
  /// Charges one protocol send to the counters (every implementation calls
  /// this exactly once per Send, before any fault decision).
  void Account(const Message& msg) {
    const uint64_t bytes = msg.EncodedSize();
    stats_.total_messages++;
    stats_.total_bytes += bytes;
    stats_.per_type[msg.type]++;
    if (msg.hops > 0) stats_.forwarded_messages++;
    NoteSendMetrics(msg, bytes);
  }

  NetworkStats stats_;

 private:
  /// Metrics-side mirror of Account: per-site sent-message/byte counters
  /// (instrument references cached per site id, so steady-state sends never
  /// touch the registry's name map) plus the kSend trace hop. Compiles to
  /// nothing in an OFF build.
  void NoteSendMetrics(const Message& msg, uint64_t bytes);

  /// One compiled scan of the pending batch.
  struct PendingScan {
    const ScanFilter* filter = nullptr;
    Bytes arg;
    std::unique_ptr<ScanFilter::Prepared> prepared;
  };

  size_t scan_threads_ = 0;
  size_t scan_shard_min_records_ = 1024;
  std::vector<ScanTask> pending_scans_;
  std::vector<PendingScan> pending_prepared_;
  std::unique_ptr<ScanWorkerPool> scan_pool_;

  obs::MetricRegistry metrics_;
  obs::TraceRing trace_;
  // Cached per-site instruments, indexed by site id and grown lazily on
  // first send from that site.
  std::vector<obs::Counter*> site_msgs_sent_;
  std::vector<obs::Counter*> site_bytes_sent_;
};

/// Single-process simulation of a multicomputer: every site has an id;
/// Send() delivers synchronously to the destination's OnMessage and accounts
/// the traffic.
///
/// The messaging path is single-threaded by design (determinism). The one
/// concession to parallelism is the scan batch: bucket servers enqueue
/// their scan evaluations here, DrainDeferredScans() runs the batch on the
/// worker pool (serially with scan_threads <= 1), and the completed replies
/// are then sent serially in ascending bucket order — so results and
/// traffic accounting do not depend on the pool size.
class SimNetwork final : public Network {
 public:
  SimNetwork() = default;

  SiteId Register(Site* site) override;

  /// Delivers `msg` to msg.to, charging the traffic counters. Delivery is
  /// synchronous: the destination's OnMessage runs before Send returns.
  void Send(Message msg) override;

  size_t site_count() const override { return sites_.size(); }

 private:
  std::vector<Site*> sites_;
  int delivery_depth_ = 0;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_NETWORK_H_
