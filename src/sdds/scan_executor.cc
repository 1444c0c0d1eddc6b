#include "sdds/scan_executor.h"

#include <utility>

#include "sdds/network.h"
#include "util/logging.h"

namespace essdds::sdds {

namespace {

/// Aborts if the task's record snapshot was mutated after enqueue. Buckets
/// resolve their queued tasks before mutating their records, so a firing
/// here means a mutation path missed its AboutToMutateRecords() call.
void CheckSnapshotLive(const ScanTask& task) {
  if (task.live_generation == nullptr) return;
  ESSDDS_CHECK(*task.live_generation == task.enqueue_generation)
      << "scan task for bucket " << task.bucket
      << " evaluated over a mutated record map (enqueue generation "
      << task.enqueue_generation << ", live " << *task.live_generation << ")";
}

}  // namespace

bool PropagateScan(const Message& msg, uint64_t bucket, uint32_t level,
                   bool retired, SiteId self, const LhRuntime& runtime,
                   Network& net) {
  if (retired) {
    Message fwd = msg;
    fwd.from = self;
    fwd.to = runtime.SiteOfBucket(ParentBucket(bucket));
    fwd.key = ParentBucket(bucket);
    fwd.hops = msg.hops + 1;
    net.Send(std::move(fwd));
    return false;
  }
  for (uint32_t l = msg.assumed_level; l < level; ++l) {
    const uint64_t child = bucket + (uint64_t{1} << l);
    if (!runtime.BucketExists(child)) continue;
    Message fwd = msg;
    fwd.from = self;
    fwd.to = runtime.SiteOfBucket(child);
    fwd.key = child;  // intended bucket, for degraded-mode routing
    fwd.assumed_level = l + 1;
    fwd.hops = msg.hops + 1;
    net.Send(std::move(fwd));
  }
  return true;
}

ScanTask MakeScanTask(const Message& msg, uint64_t bucket, uint32_t level,
                      SiteId self, const ColumnStore& store,
                      const uint64_t* generation) {
  ScanTask task;
  task.bucket = bucket;
  task.columns = store.slice();
  task.live_generation = generation;
  task.enqueue_generation = *generation;
  task.reply.type = MsgType::kScanReply;
  task.reply.from = self;
  task.reply.to = msg.reply_to;
  task.reply.request_id = msg.request_id;
  task.reply.trace_id = msg.trace_id;
  task.reply.key = bucket;  // lets the client attribute hits to buckets
  task.reply.new_level = level;
  return task;
}

void ExecuteScanTask(ScanTask& task) {
  if (task.evaluated) return;
  CheckSnapshotLive(task);
  task.evaluated = true;
  if (task.prepared == nullptr) return;  // malformed argument: empty reply
  task.prepared->MatchColumns(task.columns, 0, task.columns.count,
                              &task.reply.records);
}

ScanWorkerPool::ScanWorkerPool(size_t threads, obs::MetricRegistry* metrics)
    : threads_(threads) {
  if (metrics != nullptr) {
    batch_tasks_hist_ = &metrics->histogram("scan.batch_tasks");
  }
}

void ScanWorkerPool::Run(std::vector<ScanTask>& tasks) {
  // Snapshot checks run here, on the caller, before any task is handed
  // out. A task a bucket already resolved ahead of a mutation keeps its
  // hits and is skipped: its snapshot is stale by design. A task without
  // a Prepared is no work: ExecuteScanTask gives it the empty reply.
  size_t pending = 0;
  for (const ScanTask& task : tasks) {
    if (task.evaluated) continue;
    CheckSnapshotLive(task);
    if (task.prepared != nullptr) ++pending;
  }
  if (batch_tasks_hist_ != nullptr) batch_tasks_hist_->Record(pending);
#if ESSDDS_THREADS
  if (threads_ > 1 && pending > 1) {
    StartWorkers();
    auto state = std::make_shared<BatchState>();
    state->tasks = tasks.data();
    state->total = tasks.size();
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_ = state;
      ++batch_seq_;
    }
    work_cv_.notify_all();
    // The caller evaluates too: it claims tasks alongside the workers
    // rather than sleeping while they drain the queue — a small batch often
    // completes entirely on this thread before a worker even wakes.
    DrainTasks(*state);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->total;
    });
    batch_.reset();
    return;
  }
#endif
  for (ScanTask& task : tasks) ExecuteScanTask(task);
}

#if ESSDDS_THREADS

ScanWorkerPool::~ScanWorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t ScanWorkerPool::started_workers() const { return workers_.size(); }

void ScanWorkerPool::StartWorkers() {
  if (!workers_.empty()) return;
  workers_.reserve(threads_);
  for (size_t w = 0; w < threads_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ScanWorkerPool::DrainTasks(BatchState& state) {
  // Lock-free claims. A ticket < total implies the batch is still in
  // flight (its caller cannot leave Run before `done` reaches total), so
  // the task array behind it is alive; an exhausted ticket touches nothing
  // but the batch-local atomics.
  for (size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
       i < state.total;
       i = state.next.fetch_add(1, std::memory_order_relaxed)) {
    ExecuteScanTask(state.tasks[i]);
    if (state.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state.total) {
      // Empty critical section: a waiter that saw `done` short is either
      // still holding mu_ (we serialize behind it) or already sleeping
      // (our notify wakes it) — no lost wakeup.
      { std::lock_guard<std::mutex> lock(mu_); }
      done_cv_.notify_all();
    }
  }
}

void ScanWorkerPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (batch_ != nullptr && batch_seq_ != seen);
    });
    if (shutdown_) return;
    seen = batch_seq_;
    // Shared ownership of the claim state: however late this worker runs,
    // it drains only this batch's tickets (see BatchState).
    std::shared_ptr<BatchState> state = batch_;
    lock.unlock();
    DrainTasks(*state);
    lock.lock();
  }
}

#else  // !ESSDDS_THREADS

ScanWorkerPool::~ScanWorkerPool() = default;

size_t ScanWorkerPool::started_workers() const { return 0; }

#endif  // ESSDDS_THREADS

}  // namespace essdds::sdds
