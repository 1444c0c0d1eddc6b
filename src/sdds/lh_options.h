#ifndef ESSDDS_SDDS_LH_OPTIONS_H_
#define ESSDDS_SDDS_LH_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sdds/column_store.h"
#include "sdds/message.h"
#include "util/bytes.h"
#include "util/logging.h"

namespace essdds::sdds {

/// Which multicomputer simulation carries an LH* file's traffic.
enum class NetworkMode : uint8_t {
  /// SimNetwork: zero-latency, synchronous, re-entrant delivery. Fully
  /// deterministic; splits and merges complete inside the client call that
  /// triggered them.
  kSync = 0,
  /// EventNetwork: discrete-event schedule with seeded per-message latency,
  /// cross-link reordering, and optional fault injection. Restructuring
  /// traffic stays in flight across client operations, so the protocol runs
  /// under real interleavings; clients keep retransmission state.
  kEvent,
};

/// Knobs of the discrete-event network simulation (NetworkMode::kEvent).
/// Every random choice — latency draws, drop/duplicate rolls — comes from
/// one generator seeded with `seed`, so a run is replayable from the seed
/// alone.
struct EventNetworkOptions {
  uint64_t seed = 1;

  /// Per-message latency, drawn uniformly from [min, max] microseconds of
  /// virtual time. Distinct latencies are what reorder messages on
  /// different links.
  uint32_t min_latency_us = 20;
  uint32_t max_latency_us = 2000;

  /// Keep each (sender, receiver) link first-in-first-out (TCP-like): a
  /// message never overtakes an earlier one on the same link. Cross-link
  /// reordering still happens. Setting this false reorders within links
  /// too (UDP-like) — the protocol survives it, at the cost of extra
  /// forwarding chatter during merges.
  bool fifo_links = true;

  /// Fault injection, applied only to fault-eligible messages — client key
  /// requests and their replies (kInsert/kLookup/kDelete and acks), which
  /// the client retry machinery recovers. Protocol-internal transfers
  /// (splits, merges, record transfers) and scans have no retransmission
  /// layer and are never dropped or duplicated by these knobs.
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;

  /// Fault injection on protocol-internal traffic too. When either is
  /// positive, the restructuring and parity messages (splits, merges,
  /// transfers, parity updates, reconstruction control) are carried over
  /// the network's reliable link layer — per-link sequence numbers,
  /// receiver acks, timeout-driven retransmission, exactly-once in-order
  /// delivery — and these probabilities apply to each frame (and its
  /// acks). Both 0 (the default): protocol frames are scheduled directly
  /// and never dropped.
  double protocol_drop_prob = 0.0;
  double protocol_duplicate_prob = 0.0;

  /// True when protocol-internal traffic rides the reliable link layer.
  bool protocol_faults() const {
    return protocol_drop_prob > 0.0 || protocol_duplicate_prob > 0.0;
  }

  friend bool operator==(const EventNetworkOptions&,
                         const EventNetworkOptions&) = default;
};

/// Tuning knobs of an LH* file.
struct LhOptions {
  /// Records per bucket before the bucket reports an overflow to the split
  /// coordinator. Real deployments use thousands; tests use small values to
  /// exercise many splits.
  size_t bucket_capacity = 64;

  /// When positive, a bucket whose record count falls below
  /// merge_threshold * bucket_capacity after a delete reports an underflow,
  /// and the coordinator dissolves the most recently created bucket back
  /// into its parent — the file shrinks transparently, the inverse of
  /// splitting ("the number of storage sites ... grows and shrinks with the
  /// storage needs"). 0 disables shrinking.
  double merge_threshold = 0.0;

  /// Mix keys through a 64-bit finalizer before the linear-hash address
  /// computation. LH* addressing (key mod 2^i) assumes uniformly
  /// distributed keys; structured keys — like the scheme's index keys,
  /// whose low bits hold the (chunking, dispersal-site) sub-id — would
  /// otherwise collapse onto a handful of addresses and thrash the split
  /// chain. Disable only for tests that reason about raw key placement.
  bool hash_keys = true;

  /// Worker threads for scan evaluation. Every bucket queues its scan
  /// evaluation off the messaging path; the batch runs on the network's
  /// persistent ScanWorkerPool and is replied in ascending bucket order.
  /// With a value > 1 the pool evaluates buckets concurrently (workers
  /// start lazily on the first parallel batch and serve every later one);
  /// 0 (the default) and 1 run the batch serially on the draining thread.
  /// Results and message/byte accounting do not depend on the value.
  size_t scan_threads = 0;

  /// Intra-bucket parallelism threshold: a scan task whose bucket
  /// holds more than this many records is split into up to scan_threads
  /// contiguous key-range shards evaluated concurrently, with shard hits
  /// spliced back in ascending key order — results stay byte-identical to
  /// the unsharded (and serial) evaluation. 0 shards every bucket with
  /// more than one record; SIZE_MAX disables sharding. No effect when
  /// scan_threads <= 1.
  size_t scan_shard_min_records = 1024;

  /// Which network simulation carries the file's messages (see
  /// NetworkMode). kSync keeps the seed behaviour bit-for-bit.
  NetworkMode network_mode = NetworkMode::kSync;

  /// Event-network schedule and fault knobs; read only under
  /// NetworkMode::kEvent.
  EventNetworkOptions event_net = {};

  /// Client request timeout in virtual microseconds (event network only):
  /// a request unanswered past the deadline is retransmitted with the same
  /// request id. The default sits far above max_latency_us so fault-free
  /// runs never retry spuriously; an idle network without a reply
  /// retransmits immediately (the request was provably lost).
  uint64_t request_timeout_us = 10'000'000;

  /// Retransmissions per request before the client gives up (LhClient
  /// aborts with a diagnostic; the socket client fails the op with
  /// Unavailable). Bounded exponential backoff doubles the timeout each
  /// attempt up to 2^6. With parity groups configured, a request still
  /// unanswered after ClientCore::kReportDeadAfterRetries retransmissions is
  /// reported to the coordinator (kDeadSite) while the client keeps trying.
  uint32_t max_request_retries = 16;

  /// Directory for durable encrypted-at-rest bucket logs (src/persist). When
  /// set, every record mutation is appended to the owning bucket's log
  /// before it is acknowledged, and a new LhSystem over the same directory
  /// replays the logs back into its buckets' record stores (records,
  /// levels, extent) before serving. Empty keeps every bucket
  /// RAM-only (the pre-persistence behaviour); ignored with a warning when
  /// the build has -DESSDDS_PERSIST=OFF.
  std::string data_dir = {};

  /// Master secret the per-bucket at-rest log keys derive from
  /// (crypto::KeyChain::PersistKey). Empty selects a fixed development
  /// master so an unconfigured shell still round-trips; a real deployment
  /// must supply its own. Recovery needs the same master that wrote the
  /// logs — a mismatch replays as corrupt (flagged, recovered empty).
  Bytes persist_master = {};

  /// Checkpoint compaction floor: a bucket log is rewritten as a single
  /// snapshot frame only once it exceeds this size AND has at least doubled
  /// since its last checkpoint. Small values force frequent compaction
  /// (tests); 0 checkpoints on every doubling.
  size_t log_checkpoint_min_bytes = 64 * 1024;

  /// Fsync every log append and checkpoint rename, extending the at-rest
  /// durability contract from process crashes to OS crashes and power loss.
  /// Off by default — appends then flush only to the OS page cache (fast,
  /// and sufficient for the simulated-site process-crash model).
  bool persist_fsync = false;

  // --- high availability: LH*RS-style parity groups (DESIGN.md §16) ---

  /// Parity group size k: every k consecutive data buckets form a group
  /// whose record state is Reed-Solomon coded (RsCode) onto parity_count
  /// parity buckets, kept in sync by kParityUpdate deltas emitted at every
  /// record-map mutation. 0 (the default) disables parity entirely — no
  /// parity sites, no update traffic, byte-identical to the pre-HA system.
  size_t parity_group_size = 0;

  /// Parity buckets m per group: the group survives any m simultaneous
  /// site losses (records reconstructed bit-for-bit from the survivors).
  /// Read only when parity_group_size > 0. Requires k + m <= 256.
  size_t parity_count = 1;

  /// Coordinator probe patience: a pinged bucket that stays silent for this
  /// much virtual time is re-pinged; after LhCoordinator::kPingAttempts
  /// unanswered pings it is declared dead and reconstruction starts.
  uint64_t ping_timeout_us = 200'000;

  /// Virtual-time delay between declaring a site dead and asking the parity
  /// proxy to rebuild it. A positive hold widens the degraded-mode window
  /// (lookups and scans decode-on-the-fly at the proxy) — used by tests and
  /// the recovery bench to measure degraded reads; 0 rebuilds immediately.
  uint64_t recovery_hold_us = 0;

  /// Slow-op structured logging threshold, in microseconds (virtual on the
  /// simulated networks, wall-clock on the socket client). Any client
  /// operation whose submit-to-completion latency meets or exceeds the
  /// threshold emits one structured JSON line (obs::LogEvent "slow_op")
  /// carrying its trace id, so the op can be fed straight to
  /// AdminClient::AssembleTrace / `essdds_admin trace`. 0 (the default)
  /// disables slow-op logging entirely.
  uint64_t slow_op_us = 0;
};

/// The key mixer used when LhOptions::hash_keys is set (splitmix64
/// finalizer: bijective, well-distributed in the low bits LH* consumes).
uint64_t LhKeyHash(uint64_t key);

/// The bucket a dissolved (or never-created) bucket folds onto: clearing
/// the top set bit is exactly the parent relation of linear hashing.
uint64_t ParentBucket(uint64_t bucket);

/// Address-relevant image of a key under the given options.
inline uint64_t LhKeyImage(uint64_t key, const LhOptions& options) {
  return options.hash_keys ? LhKeyHash(key) : key;
}

/// Site-side scan predicate, deployed at every bucket (stands in for query
/// code shipped to the sites). A scan's opaque wire argument is compiled by
/// Prepare() into an immutable per-scan state; Matches() then runs per
/// record against that state.
///
/// Lifecycle: Prepare() is thread-safe and called with the scan message's
/// argument bytes once per scan on each network (each host, on the socket
/// tier), when the network queues the scan's first bucket task. The single
/// returned Prepared instance is shared by every bucket of that scan the
/// network holds, and with scan_threads > 1 its Matches() runs
/// concurrently from several workers. Matches() must therefore be const
/// and thread-safe: no unsynchronized mutable members — per-thread scratch
/// buffers belong in thread_local storage. A Prepared never outlives its
/// scan. (The parity proxy's degraded scan of a dead bucket prepares its
/// own instance and evaluates inline.)
class ScanFilter {
 public:
  class Prepared {
   public:
    virtual ~Prepared() = default;

    /// True when the record is a hit. Called once per record of the bucket;
    /// implementations should avoid per-record allocation.
    virtual bool Matches(uint64_t key, ByteSpan value) const = 0;

    /// Batch evaluation over a bucket's store slice: appends a
    /// WireRecord{key, payload} to `out` for every hit among records
    /// [begin, end), in ascending index (= ascending key) order. Every scan
    /// runs through here — one virtual call per shard instead of one per
    /// record, and the payloads stream out of a contiguous arena. The default walks Matches() per record;
    /// filters with a batch engine (bit-parallel matchers) override it.
    /// Must produce exactly the hits the per-record Matches() would — the
    /// serial/pooled/sharded byte-identity bar depends on it.
    virtual void MatchColumns(const ColumnSlice& slice, size_t begin,
                              size_t end, std::vector<WireRecord>* out) const {
      for (size_t i = begin; i < end; ++i) {
        const ByteSpan payload = slice.payload(i);
        if (Matches(slice.keys[i], payload)) {
          out->push_back(
              WireRecord{slice.keys[i], Bytes(payload.begin(), payload.end())});
        }
      }
    }
  };

  virtual ~ScanFilter() = default;

  /// Compiles `arg` into per-scan state. Returning nullptr (e.g. for a
  /// malformed argument) makes the scan match nothing.
  virtual std::unique_ptr<Prepared> Prepare(ByteSpan arg) const = 0;
};

/// Adapts a stateless predicate to the ScanFilter interface, for filters
/// with no per-scan compilation step (tests, simple selections). The
/// predicate receives the scan argument on every call.
std::unique_ptr<ScanFilter> MakeScanFilter(
    std::function<bool(uint64_t key, ByteSpan value, ByteSpan arg)> predicate);

/// State of a data bucket reconstructed from parity + surviving group
/// members, handed from the recovery proxy to the hosting system to install
/// on a spare server (LhRuntime::RebuildBucket).
struct RebuiltBucket {
  uint32_t level = 0;
  /// The bucket died as a split target awaiting its records or its
  /// release; the rebuilt server starts parked the same way (the transfer
  /// or the release redelivers to it).
  bool loading = false;
  /// The bucket died as a merge victim after shipping its records and
  /// before their ack: the rebuilt server forwards every op to the parent,
  /// as the victim did, until the ack lets it report the merge done.
  bool retired = false;
  /// Parity updates the bucket had emitted; the rebuilt server continues
  /// the per-member sequence from here.
  uint64_t parity_seq = 0;
  /// rank -> record. The rebuilt server adopts these ranks verbatim so the
  /// group's parity rows keep addressing the same record slots.
  std::map<uint64_t, WireRecord> rank_records;
};

/// Services that bucket servers and the coordinator obtain from the hosting
/// LhSystem: logical-bucket-to-site routing, bucket creation during splits,
/// and the registry of installed scan filters. Implemented by LhSystem.
class LhRuntime {
 public:
  virtual ~LhRuntime() = default;

  /// Site serving logical bucket `bucket`; addresses beyond the current
  /// extent fold onto the parent chain (merge forwarding stubs).
  virtual SiteId SiteOfBucket(uint64_t bucket) const = 0;

  /// True when the logical bucket exists.
  virtual bool BucketExists(uint64_t bucket) const = 0;

  /// Site of the split coordinator.
  virtual SiteId CoordinatorSite() const = 0;

  /// Allocates a new bucket server for logical bucket `bucket` at `level`
  /// (coordinator only). Returns its site id.
  virtual SiteId CreateBucket(uint64_t bucket, uint32_t level) = 0;

  /// Looks up an installed scan filter (aborts on unknown id: filters are
  /// installed before use).
  virtual const ScanFilter& FilterById(uint64_t filter_id) const = 0;

  /// The file's options (clients need the key-hashing setting to compute
  /// addresses consistently with the servers).
  virtual const LhOptions& options() const = 0;

  /// Removes the highest-numbered bucket from the routing directory after a
  /// merge (coordinator only). The server object is retired, not destroyed:
  /// in-flight references stay valid, and stale addresses fold onto the
  /// parent chain in SiteOfBucket.
  virtual void RetireLastBucket() = 0;

  // --- high availability (parity groups, DESIGN.md §16). Defaults keep
  // runtimes without parity support (single-bucket hosts, tests) compiling;
  // LhSystem overrides all of them when parity_group_size > 0. ---

  /// Parity sites of the group containing data bucket `bucket`, in parity
  /// row order. Empty when parity is disabled.
  virtual std::vector<SiteId> ParitySitesOfBucket(uint64_t /*bucket*/) const {
    return {};
  }

  /// True when `site` has been killed in the simulation (fail-stop). The
  /// recovery proxy uses this to fold not-yet-declared dead group members
  /// into a gather instead of waiting on them forever.
  virtual bool SiteIsDead(SiteId /*site*/) const { return false; }

  /// Declares data bucket `bucket` dead (coordinator only): reroutes its
  /// address onto the group's recovery proxy — the first live parity site —
  /// and starts the proxy's reconstruction gather. Returns the proxy site.
  virtual SiteId MarkBucketDead(uint64_t /*bucket*/) {
    ESSDDS_CHECK(false) << "runtime has no parity support";
    return kInvalidSite;
  }

  /// Installs reconstructed bucket state on a fresh spare server, restores
  /// routing (dead-bucket entry dropped, network redirected so parked
  /// frames redeliver), and re-attaches persistence. Proxy only, after its
  /// decode converged.
  virtual void RebuildBucket(uint64_t /*bucket*/, RebuiltBucket /*state*/) {
    ESSDDS_CHECK(false) << "runtime has no parity support";
  }

  /// True when no frame sent by any site that ever served `bucket` is still
  /// in flight. The proxy's decode waits on this for dead members: a dead
  /// site's already-sent parity updates still deliver (fail-stop with
  /// drained output), and the decode must reflect all of them.
  virtual bool MemberTrafficDrained(uint64_t /*bucket*/) const { return true; }

  /// Notification that a bucket server halted on an unrecoverable append
  /// failure (persistence I/O error). Hosting runtimes that keep post-mortem
  /// telemetry (net::BucketHost) override this to flush it immediately —
  /// a halted bucket is exactly the state an operator will want a complete
  /// metrics file for. Default: no-op.
  virtual void OnBucketHalted(uint64_t /*bucket*/) {}
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_LH_OPTIONS_H_
