#ifndef ESSDDS_SDDS_SCAN_EXECUTOR_H_
#define ESSDDS_SDDS_SCAN_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#if ESSDDS_THREADS
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#endif

#include "obs/metrics.h"
#include "sdds/lh_options.h"
#include "sdds/message.h"

namespace essdds::sdds {

/// One deferred bucket-scan evaluation. In parallel scan mode a bucket
/// server answers a kScan message by enqueueing this task instead of
/// evaluating inline; the filter work then runs off the messaging path so
/// a worker pool can evaluate buckets concurrently. The reply message is
/// pre-filled with everything except the hit records.
///
/// `columns` borrows the bucket's record store (ColumnStore::slice), and
/// evaluation runs the filter's batch MatchColumns path over it. The bucket
/// guards the borrow: before any record mutation it asks the network to
/// resolve its queued tasks (Network::ResolveDeferredScans), so a task is
/// always evaluated against exactly the content the serial inline mode
/// would have seen at kScan delivery. `live_generation`/`enqueue_generation`
/// assert that contract: the bucket bumps its mutation generation on every
/// record change, and evaluation aborts if the snapshot went stale anyway.
struct ScanTask {
  uint64_t bucket = 0;
  ColumnSlice columns;
  const ScanFilter* filter = nullptr;
  Bytes arg;      // owned copy of the scan argument (workers never touch
                  // the originating message)
  Message reply;  // header pre-filled; `records` appended by the worker

  /// When `has_shared_prepared` is set, the drain already compiled the scan
  /// argument once for every bucket of this scan; the worker uses
  /// `shared_prepared` (nullptr = malformed argument, empty reply) instead
  /// of running Prepare() itself.
  const ScanFilter::Prepared* shared_prepared = nullptr;
  bool has_shared_prepared = false;

  /// Dangling-snapshot guard: the owning bucket's mutation counter, and its
  /// value when the task was enqueued. Evaluation CHECKs them equal.
  const uint64_t* live_generation = nullptr;
  uint64_t enqueue_generation = 0;

  /// Set once the task's hits are in `reply`; an evaluated task is skipped
  /// by every later execution pass (a bucket may resolve its tasks early,
  /// ahead of the batch drain, when a mutation is about to land).
  bool evaluated = false;
};

/// Evaluates one task inline on the calling thread: prepares the filter
/// from the task's argument (unless a shared Prepared is attached) and
/// fills task.reply.records with the hits, in ascending key order (the
/// store's order — deterministic regardless of execution order).
/// No-op when the task is already evaluated.
void ExecuteScanTask(ScanTask& task);

/// Long-lived fixed-size worker pool for scan evaluation. One instance is
/// owned by each Network and reused across every scan batch, replacing the
/// old spawn-threads-per-batch executor: workers block on a condition
/// variable between batches, so a scan pays queue signalling instead of
/// thread creation. Within a batch, shard claims are lock-free and the
/// calling thread evaluates shards alongside the workers, so small batches
/// complete without a single context switch.
///
/// Sharding: Run() splits any task whose bucket holds more than
/// `shard_min_records` records into up to `thread_count()` contiguous index
/// ranges of its slice, evaluated concurrently, then splices the shard hits
/// back in ascending key order — so serial, pooled, and sharded execution
/// produce byte-identical replies.
///
/// Lifecycle: construction is cheap and spawns nothing; workers start
/// lazily on the first batch that can use them and are joined by the
/// destructor (clean shutdown, no detached threads). With `threads` <= 1,
/// or in a build without thread support (ESSDDS_THREADS off), Run() is the
/// plain serial loop and no worker ever starts.
///
/// Thread safety: Run() is driven from the single-threaded messaging path;
/// concurrent Run() calls are not supported (nor possible — the simulator
/// has one driver thread). Worker threads touch only the batch handed to
/// them.
class ScanWorkerPool {
 public:
  /// `metrics`, when given, receives the pool's batch-shape histograms
  /// ("scan.batch_tasks", "scan.batch_shards" — how many buckets each drain
  /// batched and how finely they sharded); must outlive the pool. The
  /// instruments are resolved once here, on the driver thread, per the
  /// registry's thread contract.
  explicit ScanWorkerPool(size_t threads,
                          obs::MetricRegistry* metrics = nullptr);
  ~ScanWorkerPool();

  ScanWorkerPool(const ScanWorkerPool&) = delete;
  ScanWorkerPool& operator=(const ScanWorkerPool&) = delete;

  /// True when the build carries thread support; false means Run() is
  /// compiled down to the serial path and no worker can ever start.
  static constexpr bool threads_compiled_in() {
#if ESSDDS_THREADS
    return true;
#else
    return false;
#endif
  }

  /// Configured pool size (evaluators used for a parallel batch).
  size_t thread_count() const { return threads_; }

  /// Workers actually running: 0 until the first parallel batch, then
  /// thread_count() for the pool's lifetime.
  size_t started_workers() const;

  /// Evaluates every not-yet-evaluated task and returns once all replies
  /// are filled. Tasks run on the pool (sharded per the threshold) when the
  /// pool is parallel, serially on the caller otherwise; results are
  /// byte-identical either way.
  void Run(std::vector<ScanTask>& tasks, size_t shard_min_records);

 private:
#if ESSDDS_THREADS
  /// One contiguous index range [begin, end) of a task's slice, with its
  /// own hit vector so workers never contend on the reply.
  struct Shard {
    ScanTask* task = nullptr;
    size_t begin = 0;
    size_t end = 0;
    const ScanFilter::Prepared* prepared = nullptr;
    std::vector<WireRecord> hits;
  };

  /// Per-batch claim state, heap-allocated and shared with every worker
  /// that wakes for the batch. Owning the claim tickets batch-locally (not
  /// as reusable pool members) makes stragglers harmless: a worker
  /// descheduled past its whole batch drains a state whose tickets are
  /// already exhausted — it can never claim shards of a later batch, and
  /// the shared_ptr keeps the state alive however late it runs. The shard
  /// array itself lives in Run()'s frame; a participant dereferences it
  /// only for a ticket < total, which implies the batch (and so the frame)
  /// is still in flight.
  struct BatchState {
    Shard* shards = nullptr;
    size_t total = 0;
    std::atomic<size_t> next{0};  // shard claim ticket
    std::atomic<size_t> done{0};  // completed-shard count
  };

  static void EvaluateShard(Shard& shard);
  void StartWorkers();
  void WorkerLoop();
  void RunBatch(std::vector<Shard>& shards);

  /// Claims and evaluates shards until the batch's tickets run out; run by
  /// the workers AND by the batch caller (the caller evaluates alongside
  /// the pool instead of sleeping). Claims are lock-free — the mutex guards
  /// only batch publication and completion signalling, so the per-shard
  /// path never sleeps on contention.
  void DrainShards(BatchState& state);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers sleep here between batches
  std::condition_variable done_cv_;  // Run() waits here for batch completion
  std::vector<std::thread> workers_;
  // Current batch; pointer and sequence guarded by mu_. `batch_seq_`
  // distinguishes batches so a worker that finishes early never re-enters
  // the same one.
  std::shared_ptr<BatchState> batch_;
  uint64_t batch_seq_ = 0;
  bool shutdown_ = false;
#endif
  const size_t threads_;
  // Batch-shape histograms (null when no registry was attached). Recorded
  // by Run() on the driver thread.
  obs::Histogram* batch_tasks_hist_ = nullptr;
  obs::Histogram* batch_shards_hist_ = nullptr;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_SCAN_EXECUTOR_H_
