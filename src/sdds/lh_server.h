#ifndef ESSDDS_SDDS_LH_SERVER_H_
#define ESSDDS_SDDS_LH_SERVER_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "persist/bucket_log.h"
#include "sdds/column_store.h"
#include "sdds/lh_options.h"
#include "sdds/network.h"

namespace essdds::sdds {

/// One LH* bucket server. Holds the records whose linear-hash address is
/// this bucket's number, verifies incoming addresses against its own level
/// (forwarding mis-addressed requests, at most twice per the LH* guarantee),
/// answers scans, and executes its half of the split protocol.
///
/// Reordering robustness (event networks): a bucket born of a split starts
/// in a loading state and parks every message until its kMoveRecords bulk
/// transfer lands — requests racing the transfer would otherwise be served
/// from an empty store, and a merge racing it would dissolve the bucket with
/// its records still in flight. Merge record transfers arriving out of
/// order (a later merge's records overtaking an earlier merge's on a
/// different link) are stashed until the level sequence catches up.
class LhBucketServer : public Site {
 public:
  LhBucketServer(LhRuntime* runtime, const LhOptions& options,
                 uint64_t bucket_number, uint32_t level);

  void OnMessage(Message& msg, Network& net) override;

  uint64_t bucket_number() const { return bucket_number_; }
  uint32_t level() const { return level_; }
  size_t record_count() const { return columns_.size(); }

  /// A copy of the bucket's records, for tests, examples and tooling; no
  /// message path calls it. A real deployment would expose this as a
  /// bulk-read RPC.
  std::map<uint64_t, Bytes> records() const;

  /// The bucket's record store: key ops and scans both read it (see
  /// ColumnStore).
  const ColumnStore& columns() const { return columns_; }

  /// The site id this server was registered under (set by LhSystem).
  void set_site(SiteId site) { site_ = site; }
  SiteId site() const { return site_; }

  /// Marks this bucket as dissolved by a merge (set by the hosting system
  /// when the bucket is retired from the routing directory, and by the
  /// bucket itself the moment it ships its records to the parent). A
  /// retired bucket no longer owns records: requests that still reach it —
  /// a stale client whose image is ahead of the file, or an op that raced
  /// the merge — are forwarded to the parent that absorbed them, never
  /// served from the empty local store.
  void Retire() { retired_ = true; }
  bool retired() const { return retired_; }

  /// True while this bucket awaits its kMoveRecords transfer (split target
  /// whose bulk load is still in flight).
  bool loading() const { return loading_; }

  /// Attaches (or detaches, with nullptr) this bucket's durable log. With a
  /// log attached every record mutation appends before it is
  /// acknowledged; an append failure halts the site (see halted()). Owned
  /// by the system's PersistManager, never by the server.
  void AttachLog(persist::BucketLog* log) { log_ = log; }
  persist::BucketLog* log() { return log_; }

  /// True once a log append tore: the site is crashed. It acknowledges
  /// nothing and silently drops every subsequent message — exactly what a
  /// killed process looks like to its peers — until a restart recovers it
  /// from the log.
  bool halted() const { return halted_; }

  /// Adopts recovered state (restart path, called by the hosting system
  /// before any traffic): loads the replayed records into the store and
  /// clears the loading state — a recovered bucket is not awaiting any
  /// transfer.
  void RestoreRecovered(const std::map<uint64_t, Bytes>& records);

  /// Adopts state reconstructed from parity (site-kill recovery): records
  /// with their rank assignments (the group's parity rows keep addressing
  /// the same slots), the parity update sequence to continue from, and the
  /// loading flag (a bucket that died awaiting its bulk load resumes
  /// waiting — the transfer redelivers).
  void RestoreRebuilt(RebuiltBucket state);

  /// Parity updates this bucket has emitted (its per-member sequence).
  uint64_t parity_seq() const { return parity_seq_; }
  /// Continues the sequence across bucket-number reuse: a bucket re-created
  /// after a merge-retire starts where the retired one stopped (set by the
  /// hosting system at creation, before any traffic).
  void set_parity_seq(uint64_t seq) { parity_seq_ = seq; }
  /// record key -> parity rank; exposed so the hosting system can re-encode
  /// parity rows in-process (restart, parity-site rebuild).
  const std::map<uint64_t, uint64_t>& rank_of() const { return rank_of_; }
  /// True while a reconstruction gather has this bucket's mutations parked.
  bool frozen() const { return frozen_; }

  /// Number of record mutations this bucket has performed. Deferred scan
  /// tasks snapshot this at enqueue and assert it unchanged at evaluation —
  /// the dangling-snapshot guard for the store slice they borrow.
  uint64_t mutation_generation() const { return mutation_generation_; }

 private:
  /// LH* server address verification: returns the bucket this request should
  /// go to next, or bucket_number_ when it belongs here.
  uint64_t RouteFor(uint64_t key) const;

  /// Append-failure halt: marks the site crashed and notifies the hosting
  /// runtime (OnBucketHalted) so it can flush post-mortem telemetry.
  void Halt() {
    halted_ = true;
    runtime_->OnBucketHalted(bucket_number_);
  }

  void HandleKeyOp(Message& msg, Network& net);
  void HandleScan(Message& msg, Network& net);
  void HandleSplit(const Message& msg, Network& net);
  void HandleMoveRecords(Message& msg, Network& net);
  void HandleMerge(const Message& msg, Network& net);
  void HandleMergeRecords(Message& msg, Network& net);

  /// `trace_id` ties the report (and the restructuring it triggers) to the
  /// client op whose mutation crossed the threshold.
  void MaybeReportOverflow(Network& net, uint64_t trace_id);
  void MaybeReportUnderflow(Network& net, uint64_t trace_id);

  /// Refreshes this bucket's record-count gauge (bucket.N.records); called
  /// after every record mutation. Resolves the instrument lazily on the
  /// driver thread, first mutation.
  void UpdateRecordGauge(Network& net);

  /// Must run before every record mutation: deferred scan tasks borrow the
  /// store's buffers, so any still queued are evaluated now — against
  /// exactly the content the serial inline mode saw at kScan delivery —
  /// and the mutation generation steps so a missed call trips the
  /// snapshot assert instead of silently corrupting a scan.
  void AboutToMutateRecords(Network& net);

  // --- parity group support (DESIGN.md §16) ---

  bool ParityEnabled() const { return options_.parity_group_size > 0; }

  /// One record mutation, expressed as the rank-buffer delta every parity
  /// site of the group folds into its row.
  struct ParityOp {
    uint8_t op = 0;  // 0 upsert, 1 erase
    uint64_t record_key = 0;
    uint64_t rank = 0;
    Bytes delta;
  };

  /// Builds the upsert op for writing `value` under `key` (allocating or
  /// reusing the key's rank; the delta XORs the old buffer out and the new
  /// one in). Must run BEFORE the store changes.
  ParityOp MakeUpsertOp(uint64_t key, ByteSpan value);
  /// Builds the erase op for `key` and frees its rank. Must run while the
  /// old value is still in the store.
  ParityOp MakeEraseOp(uint64_t key);

  /// Ships one kParityUpdate (sequence-numbered) carrying `ops` to every
  /// parity site of this bucket's group; no-op when parity is off or the
  /// op list is empty — except that a loading-clearing update is sent even
  /// empty (the parity members must observe the loading transition).
  void EmitParity(Network& net, std::vector<ParityOp> ops, bool clears_loading,
                  uint64_t trace_id);

  void HandlePing(const Message& msg, Network& net);
  void HandleReconstructRequest(const Message& msg, Network& net);

  LhRuntime* runtime_;
  LhOptions options_;
  uint64_t bucket_number_;
  uint32_t level_;
  SiteId site_ = kInvalidSite;
  bool retired_ = false;
  /// Every bucket except the root is created by a split and must absorb its
  /// kMoveRecords transfer before serving; messages that arrive earlier
  /// park in `parked_` and replay in arrival order once the load lands.
  bool loading_;
  std::vector<Message> parked_;
  /// kMergeRecords transfers that overtook an earlier merge's (their level
  /// step doesn't yet fit); applied once the level sequence catches up.
  std::vector<Message> stashed_merge_records_;
  /// Restructuring orders (kSplit / kMerge) that overtook the merge record
  /// transfer which steps this bucket's level down to the level the
  /// coordinator computed them against. The coordinator serializes
  /// restructurings, so at most one order can wait here; it replays once
  /// the pending transfer lands.
  std::vector<Message> stashed_control_;
  /// The bucket's records: single-record ops edit it in place, bulk
  /// transfers adopt or extract with one repack, and scan tasks borrow its
  /// slice so matching streams the arena.
  ColumnStore columns_;
  /// Bumped by AboutToMutateRecords on every record change; deferred scan
  /// tasks carry a pointer to it (see ScanTask::live_generation).
  uint64_t mutation_generation_ = 0;
  obs::Gauge* record_gauge_ = nullptr;  // bucket.N.records, resolved lazily
  /// Durable log (nullable: RAM-only bucket). Appends happen before acks.
  persist::BucketLog* log_ = nullptr;
  /// Set when a log append fails: the site is dead (see halted()).
  bool halted_ = false;
  /// Parity rank table: each record occupies a stable small-integer rank
  /// (the row of the group's parity buffers it is coded into). Freed ranks
  /// are reused smallest-first so the rank space stays dense.
  std::map<uint64_t, uint64_t> rank_of_;  // record key -> rank
  std::set<uint64_t> free_ranks_;
  uint64_t next_rank_ = 0;
  /// Sequence number of the last kParityUpdate this bucket emitted. Parity
  /// sites apply updates strictly in this order; the hosting system
  /// preserves it across bucket-number reuse and reconstruction.
  uint64_t parity_seq_ = 0;
  /// Level as of the last emitted update (a level step without record
  /// deltas must still be announced — see EmitParity).
  uint32_t parity_level_emitted_;
  /// Set by a reconstruction gather (kReconstructRequest mode 0): every
  /// mutating message parks in frozen_parked_ until the release (mode 2);
  /// lookups, scans, and liveness probes still answer.
  bool frozen_ = false;
  std::vector<Message> frozen_parked_;
  /// Highest reconstruction epoch each proxy site has released. A freeze
  /// can replay out of a dead site's letter queue AFTER its gather already
  /// released (the rebuilt successor inherits the queue); honouring it
  /// would freeze the bucket with no release ever coming.
  std::map<SiteId, uint64_t> reconstruct_release_floor_;
};

/// The LH* split coordinator: receives overflow notifications and drives the
/// deterministic linear-splitting order (always split bucket n, then advance
/// the split pointer; double the level when the pointer wraps).
class LhCoordinator : public Site {
 public:
  explicit LhCoordinator(LhRuntime* runtime) : runtime_(runtime) {}

  void OnMessage(Message& msg, Network& net) override;

  uint32_t level() const { return level_; }
  uint64_t split_pointer() const { return split_pointer_; }

  /// The coordinator's (always accurate) file image.
  FileImage Image() const { return FileImage{level_, static_cast<uint32_t>(split_pointer_)}; }

  void set_site(SiteId site) { site_ = site; }

  /// Restart path: re-derives the coordinator state from a recovered file
  /// of `extent` buckets. Linear hashing fixes (i, n) from the extent
  /// alone: extent = 2^i + n with n < 2^i.
  void RestoreExtent(uint64_t extent) {
    ESSDDS_CHECK(extent >= 1);
    uint32_t i = 0;
    while ((uint64_t{2} << i) <= extent) ++i;
    level_ = i;
    split_pointer_ = extent - (uint64_t{1} << i);
    extent_ = extent;
  }

 private:
  /// `trace_id` of the overflow/underflow report that triggered the
  /// restructuring; carried on the orders it sends.
  void PerformSplit(Network& net, uint64_t trace_id);

  LhRuntime* runtime_;
  SiteId site_ = kInvalidSite;
  void PerformMerge(Network& net, uint64_t trace_id);

  // --- dead-site detection and recovery (DESIGN.md §16) ---

  /// Client report that bucket `key`'s site stopped answering: verify with
  /// a ping probe before declaring the site dead (a slow site is not a
  /// dead site), then hand reconstruction to the group's parity proxy.
  void HandleDeadSite(const Message& msg, Network& net);
  void HandleRecoveryTick(const Message& msg, Network& net);
  void SendRebuild(uint64_t bucket, Network& net);

  struct DeadProbe {
    bool declared = false;
    uint64_t declared_at_us = 0;
    /// When the first client report created this probe — the start of the
    /// recovery.declare_us phase timer (report -> declaration).
    uint64_t reported_at_us = 0;
    SiteId proxy = kInvalidSite;
    // Probe generation: a pong can erase a probe and a later report
    // re-create it; the timeout tick of the ERASED probe must not declare
    // the new one (it hasn't had its patience window yet).
    uint64_t generation = 0;
    // Unanswered pings so far; declares at options.ping_attempts.
    uint32_t attempts = 0;
  };
  std::map<uint64_t, DeadProbe> dead_probes_;  // by bucket number
  uint64_t next_probe_generation_ = 1;
  /// Buckets declared dead whose rebuild hasn't completed. Restructuring
  /// (splits/merges) is deferred while any recovery runs; the next
  /// overflow/underflow report after the rebuild picks it back up.
  size_t recovering_ = 0;

  uint32_t level_ = 0;          // i
  uint64_t split_pointer_ = 0;  // n
  bool split_in_progress_ = false;
  bool merge_in_progress_ = false;
  uint64_t extent_ = 1;  // buckets currently in the file
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_LH_SERVER_H_
