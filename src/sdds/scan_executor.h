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

class Network;

/// One bucket's evaluation of a scan. A bucket server answers a kScan by
/// queueing this task with the network (Network::EnqueueScanTask), which
/// evaluates the batch off the messaging path when the scan initiator (or
/// the socket poll turn) drains it. The reply message is pre-filled with
/// everything except the hit records.
///
/// `columns` borrows the bucket's record store (ColumnStore::slice), and
/// evaluation runs the scan's batch MatchColumns path over it. The bucket
/// guards the borrow: before any record mutation it asks the network to
/// resolve its queued tasks (Network::ResolveDeferredScans), so a task is
/// always evaluated against exactly the content the bucket held at kScan
/// delivery. `live_generation`/`enqueue_generation` assert that contract:
/// the bucket bumps its mutation generation on every record change, and
/// evaluation aborts if the snapshot went stale anyway.
struct ScanTask {
  uint64_t bucket = 0;
  ColumnSlice columns;
  /// The scan's compiled filter, shared by every bucket of the scan
  /// (nullptr = malformed argument, empty reply). For a queued task the
  /// network's pending batch owns it until the task is evaluated.
  const ScanFilter::Prepared* prepared = nullptr;
  Message reply;  // header pre-filled; `records` appended by evaluation

  /// Dangling-snapshot guard: the owning bucket's mutation counter, and its
  /// value when the task was enqueued. Evaluation CHECKs them equal.
  const uint64_t* live_generation = nullptr;
  uint64_t enqueue_generation = 0;

  /// Set once the task's hits are in `reply`; an evaluated task is skipped
  /// by every later execution pass (a bucket may resolve its tasks early,
  /// ahead of the batch drain, when a mutation is about to land).
  bool evaluated = false;
};

/// Routes a kScan the way bucket `bucket` (its split `level`, hosted at
/// site `self`) must before answering it. A `retired` bucket was dissolved
/// by a merge: the scan goes to its parent, which owns the records now and
/// answers under its own number, and the result is false. Otherwise the
/// scan is propagated to every split child the sender's image did not
/// cover, and true says this bucket answers. Each existing bucket receives
/// the scan exactly once: the client covers its image, and each bucket
/// covers the children created by its own splits past the level the
/// sender assumed; a child dissolved by a concurrent merge is skipped.
bool PropagateScan(const Message& msg, uint64_t bucket, uint32_t level,
                   bool retired, SiteId self, const LhRuntime& runtime,
                   Network& net);

/// The task that answers `msg` at `bucket` from `store`, guarded by
/// `*generation`, with its kScanReply header filled in. The reply carries
/// `level`, snapshotted at forward time: a client without a quiescence
/// barrier (sockets) derives from it exactly which children the scan was
/// propagated to and awaits those replies too. `prepared` is left unset.
ScanTask MakeScanTask(const Message& msg, uint64_t bucket, uint32_t level,
                      SiteId self, const ColumnStore& store,
                      const uint64_t* generation);

/// Evaluates one task on the calling thread with its attached Prepared,
/// filling task.reply.records with the hits in ascending key order (the
/// store's order — deterministic regardless of execution order). No-op
/// when the task is already evaluated; a task without a Prepared gets the
/// empty reply. The one evaluation routine: the pool's workers, a bucket
/// resolving its tasks ahead of a mutation (Network::ResolveDeferredScans)
/// and the parity proxy's degraded scan all run it.
void ExecuteScanTask(ScanTask& task);

/// Long-lived fixed-size worker pool for scan evaluation. One instance is
/// owned by each Network and reused across every scan batch: workers block
/// on a condition variable between batches, so a scan pays queue
/// signalling instead of thread creation. The unit of work is one task —
/// one bucket's evaluation, as in the LH* parallel scan. Within a batch,
/// task claims are lock-free and the calling thread evaluates tasks
/// alongside the workers, so small batches complete without a single
/// context switch.
///
/// Determinism: each task is evaluated whole by exactly one thread and
/// writes only its own reply, in the store's ascending key order, so
/// serial and pooled execution produce byte-identical replies whatever
/// the claim order.
///
/// Lifecycle: construction is cheap and spawns nothing; workers start
/// lazily on the first batch that can use them and are joined by the
/// destructor (clean shutdown, no detached threads). With `threads` <= 1,
/// or in a build without thread support (ESSDDS_THREADS off), the batch
/// runs serially on the caller and no worker ever starts.
///
/// Thread safety: Run() is driven from the single-threaded messaging path;
/// concurrent Run() calls are not supported (nor possible — the simulator
/// has one driver thread). Worker threads touch only the batch handed to
/// them.
class ScanWorkerPool {
 public:
  /// `metrics`, when given, receives the pool's batch-shape histogram
  /// ("scan.batch_tasks" — how many buckets each drain evaluated); must
  /// outlive the pool. The instrument is resolved once here, on the driver
  /// thread, per the registry's thread contract.
  explicit ScanWorkerPool(size_t threads,
                          obs::MetricRegistry* metrics = nullptr);
  ~ScanWorkerPool();

  ScanWorkerPool(const ScanWorkerPool&) = delete;
  ScanWorkerPool& operator=(const ScanWorkerPool&) = delete;

  /// Configured pool size (evaluators used for a parallel batch).
  size_t thread_count() const { return threads_; }

  /// Workers actually running: 0 until the first parallel batch, then
  /// thread_count() for the pool's lifetime.
  size_t started_workers() const;

  /// Evaluates every not-yet-evaluated task with ExecuteScanTask and
  /// returns once all replies are filled: on the pool when it is parallel
  /// and more than one task is pending, serially on the caller otherwise.
  /// The snapshot check of every pending task runs here, on the caller,
  /// before any task is handed out.
  void Run(std::vector<ScanTask>& tasks);

 private:
#if ESSDDS_THREADS
  /// Per-batch claim state, heap-allocated and shared with every worker
  /// that wakes for the batch. Owning the claim tickets batch-locally (not
  /// as reusable pool members) makes stragglers harmless: a worker
  /// descheduled past its whole batch drains a state whose tickets are
  /// already exhausted — it can never claim tasks of a later batch, and
  /// the shared_ptr keeps the state alive however late it runs. The task
  /// array itself is the caller's; a participant dereferences it only for
  /// a ticket < total, which implies the batch is still in flight.
  struct BatchState {
    ScanTask* tasks = nullptr;
    size_t total = 0;
    std::atomic<size_t> next{0};  // task claim ticket
    std::atomic<size_t> done{0};  // completed-task count
  };

  void StartWorkers();
  void WorkerLoop();

  /// Claims and evaluates tasks until the batch's tickets run out; run by
  /// the workers AND by the batch caller (the caller evaluates alongside
  /// the pool instead of sleeping). Claims are lock-free — the mutex guards
  /// only batch publication and completion signalling, so the per-task
  /// path never sleeps on contention.
  void DrainTasks(BatchState& state);

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
  // Batch-shape histogram (null when no registry was attached). Recorded
  // by Run() on the driver thread.
  obs::Histogram* batch_tasks_hist_ = nullptr;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_SCAN_EXECUTOR_H_
