#ifndef ESSDDS_SDDS_LH_SERVER_H_
#define ESSDDS_SDDS_LH_SERVER_H_

#include <cstdint>
#include <map>
#include <optional>
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
/// answers scans, and runs either end of the record transfer that splits
/// and merges share.
///
/// The transfer is acknowledged (DESIGN.md §14): the receiver logs and
/// adopts the records, then acks; the sender logs its erase (split) or
/// clear (merge) only after the ack, and only then reports done to the
/// coordinator. A bucket born of a split starts in a loading state and
/// parks every message until its parent's erase is durable (the parent's
/// second ack releases it): serving earlier would answer from an empty
/// store, or ack writes that a crash between the two log writes discards.
/// Because done follows the receiver's adoption, the coordinator's next
/// order never overtakes a transfer still in flight.
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

  /// True while this split target awaits its records or the release that
  /// follows its parent's durable erase.
  bool loading() const { return loading_; }

  /// True while a transfer this bucket sent awaits its kTransferAck.
  bool transfer_pending() const { return transfer_pending_; }

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
  /// loading flag (a split target that died loading resumes waiting — the
  /// transfer or the release redelivers), and the retired flag (a merge
  /// victim that died awaiting its ack resumes forwarding to the parent).
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
  /// Sender half of a split (kSplit) or merge (kMerge) order: carves out
  /// the records, ships one kTransfer, and waits for its ack.
  void StartTransfer(const Message& order, Network& net);
  /// Receiver half: logs and adopts the records, then acks.
  void HandleTransfer(const Message& msg, Network& net);
  /// At the sender, logs the owed erase/clear and reports done; at a
  /// loading split target, the release that lets it serve.
  void HandleTransferAck(const Message& msg, Network& net);
  /// Sends a kTransferAck to `bucket`, the other end of the transfer.
  void SendTransferAck(uint64_t bucket, uint64_t trace_id, Network& net);
  /// Checkpoint policy hook, held off while a transfer is pending: a
  /// snapshot would make the erase durable before the receiver's copy.
  void MaybeCheckpoint();

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

  /// The member state every kParityUpdate carries in filter_id: bit 0
  /// loading, bit 1 retired. A proxy serving this bucket's shadow parks or
  /// forwards exactly where this bucket would.
  uint64_t ParityMemberFlags() const {
    return (loading_ ? 1 : 0) | (retired_ ? 2 : 0);
  }

  /// Ships one kParityUpdate (sequence-numbered) carrying `ops` to every
  /// parity site of this bucket's group; no-op when parity is off, or when
  /// the op list is empty and neither the level nor the member flags moved
  /// since the last update (the parity sites mirror both).
  void EmitParity(Network& net, std::vector<ParityOp> ops, uint64_t trace_id);

  void HandlePing(const Message& msg, Network& net);
  void HandleReconstructRequest(const Message& msg, Network& net);

  LhRuntime* runtime_;
  LhOptions options_;
  uint64_t bucket_number_;
  uint32_t level_;
  SiteId site_ = kInvalidSite;
  bool retired_ = false;
  /// Every bucket except the root is created by a split and must not serve
  /// until its parent has logged the erase of the records it received;
  /// messages that arrive earlier park in `parked_` and replay in arrival
  /// order at the release.
  bool loading_;
  std::vector<Message> parked_;
  /// Set from sending a kTransfer to its ack; `moved_keys_` holds a split's
  /// carve-out until the ack lets the erase reach the log.
  bool transfer_pending_ = false;
  std::vector<uint64_t> moved_keys_;
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
  /// Level and member flags as of the last emitted update (a step without
  /// record deltas must still be announced — see EmitParity).
  uint32_t parity_level_emitted_;
  uint64_t parity_flags_emitted_;
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
  /// Pings sent (ping_timeout_us apart) before a silent bucket is declared
  /// dead. More attempts make false declaration — which costs one erasure
  /// of parity headroom for nothing — robust against latency tails and
  /// protocol-fault retransmission delays.
  static constexpr uint32_t kPingAttempts = 3;

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
    // Unanswered pings so far; declares at kPingAttempts.
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
  /// Trace id of an overflow report that raced the split in flight.
  std::optional<uint64_t> owed_split_trace_;
  uint64_t extent_ = 1;  // buckets currently in the file
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_LH_SERVER_H_
