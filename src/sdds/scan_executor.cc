#include "sdds/scan_executor.h"

#include <algorithm>
#include <iterator>
#include <utility>

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

void ExecuteScanTask(ScanTask& task) {
  if (task.evaluated) return;
  CheckSnapshotLive(task);
  std::unique_ptr<ScanFilter::Prepared> local;
  const ScanFilter::Prepared* prepared = task.shared_prepared;
  if (!task.has_shared_prepared) {
    local = task.filter->Prepare(task.arg);
    prepared = local.get();
  }
  task.evaluated = true;
  if (prepared == nullptr) return;  // malformed argument: empty reply
  prepared->MatchColumns(task.columns, 0, task.columns.count,
                         &task.reply.records);
}

ScanWorkerPool::ScanWorkerPool(size_t threads, obs::MetricRegistry* metrics)
    : threads_(threads) {
  if (metrics != nullptr) {
    batch_tasks_hist_ = &metrics->histogram("scan.batch_tasks");
    batch_shards_hist_ = &metrics->histogram("scan.batch_shards");
  }
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

void ScanWorkerPool::EvaluateShard(Shard& shard) {
  // One batch call over the index range; the filter walks the packed arena
  // itself.
  shard.prepared->MatchColumns(shard.task->columns, shard.begin, shard.end,
                               &shard.hits);
}

void ScanWorkerPool::DrainShards(BatchState& state) {
  // Lock-free claims. A ticket < total implies the batch is still in
  // flight (its caller cannot leave RunBatch before `done` reaches total),
  // so the shard array behind it is alive; an exhausted ticket touches
  // nothing but the batch-local atomics.
  for (size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
       i < state.total;
       i = state.next.fetch_add(1, std::memory_order_relaxed)) {
    EvaluateShard(state.shards[i]);
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
    DrainShards(*state);
    lock.lock();
  }
}

void ScanWorkerPool::RunBatch(std::vector<Shard>& shards) {
  StartWorkers();
  auto state = std::make_shared<BatchState>();
  state->shards = shards.data();
  state->total = shards.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = state;
    ++batch_seq_;
  }
  work_cv_.notify_all();
  // The caller evaluates too: it claims shards alongside the workers
  // rather than sleeping while they drain the queue — a small batch often
  // completes entirely on this thread before a worker even wakes.
  DrainShards(*state);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->total;
  });
  batch_.reset();
}

void ScanWorkerPool::Run(std::vector<ScanTask>& tasks,
                         size_t shard_min_records) {
  if (threads_ <= 1) {
    size_t executed = 0;
    for (ScanTask& task : tasks) {
      if (!task.evaluated) ++executed;
      ExecuteScanTask(task);
    }
    if (batch_tasks_hist_ != nullptr) {
      batch_tasks_hist_->Record(executed);
      // Serial mode: every task is its own (whole-bucket) shard.
      batch_shards_hist_->Record(executed);
    }
    return;
  }
  // Shard planning runs on the caller: per-task Prepare (when the drain did
  // not attach a shared instance), snapshot checks, and contiguous index
  // range carving. Treat a threshold of 0 as 1 — shard everything with more
  // than one record.
  const size_t min_records = std::max<size_t>(shard_min_records, 1);
  std::vector<std::unique_ptr<ScanFilter::Prepared>> local_prepared;
  std::vector<Shard> shards;
  std::vector<ScanTask*> planned;
  for (ScanTask& task : tasks) {
    if (task.evaluated) continue;
    CheckSnapshotLive(task);
    const ScanFilter::Prepared* prepared = task.shared_prepared;
    if (!task.has_shared_prepared) {
      local_prepared.push_back(task.filter->Prepare(task.arg));
      prepared = local_prepared.back().get();
    }
    if (prepared == nullptr) {  // malformed argument: empty reply
      task.evaluated = true;
      continue;
    }
    // Equal record counts by index: exact balance for any key distribution
    // (parts <= n, so every shard holds at least one record; an empty
    // bucket is one empty shard). Ranges are contiguous and ascending, so
    // the splice below reassembles the reply in ascending key order.
    const size_t n = task.columns.count;
    size_t parts = 1;
    if (n > min_records) {
      parts = std::min(threads_, (n + min_records - 1) / min_records);
    }
    for (size_t s = 0; s < parts; ++s) {
      Shard shard;
      shard.task = &task;
      shard.begin = n * s / parts;
      shard.end = n * (s + 1) / parts;
      shard.prepared = prepared;
      shards.push_back(std::move(shard));
    }
    planned.push_back(&task);
  }
  if (batch_tasks_hist_ != nullptr) {
    batch_tasks_hist_->Record(planned.size());
    batch_shards_hist_->Record(shards.size());
  }
  if (!shards.empty()) {
    if (shards.size() == 1) {
      EvaluateShard(shards.front());
    } else {
      RunBatch(shards);
    }
    // Splice: shards were planned in task order with ascending key ranges,
    // so a straight append reassembles each reply in ascending key order —
    // byte-identical to the serial evaluation.
    for (Shard& shard : shards) {
      auto& out = shard.task->reply.records;
      out.insert(out.end(), std::make_move_iterator(shard.hits.begin()),
                 std::make_move_iterator(shard.hits.end()));
    }
  }
  for (ScanTask* task : planned) task->evaluated = true;
}

#else  // !ESSDDS_THREADS

ScanWorkerPool::~ScanWorkerPool() = default;

size_t ScanWorkerPool::started_workers() const { return 0; }

void ScanWorkerPool::Run(std::vector<ScanTask>& tasks,
                         size_t shard_min_records) {
  // Thread support compiled out: the pool is the serial path, regardless of
  // its configured size or the shard threshold.
  (void)shard_min_records;
  size_t executed = 0;
  for (ScanTask& task : tasks) {
    if (!task.evaluated) ++executed;
    ExecuteScanTask(task);
  }
  if (batch_tasks_hist_ != nullptr) {
    batch_tasks_hist_->Record(executed);
    batch_shards_hist_->Record(executed);
  }
}

#endif  // ESSDDS_THREADS

}  // namespace essdds::sdds
