// Persistent scan worker pool battery: lifecycle stress (repeated
// start/run/destroy cycles, lazy start, never-started pools), determinism
// (pool size 1 and every shard threshold bit-for-bit equal to serial
// evaluation), oversubscription in both directions, empty batches, the
// ESSDDS_THREADS=OFF serial-fallback guarantee, and the deferred-scan
// snapshot contract under scripted pause/scan/split interleavings on the
// event network.

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sdds/column_store.h"
#include "sdds/event_network.h"
#include "sdds/lh_system.h"
#include "sdds/scan_executor.h"
#include "util/bytes.h"
#include "util/random.h"

namespace essdds::sdds {
namespace {

constexpr size_t kNoShard = std::numeric_limits<size_t>::max();

Bytes Val(uint64_t k) { return ToBytes("value-" + std::to_string(k)); }

std::map<uint64_t, Bytes> BuildRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::map<uint64_t, Bytes> records;
  while (records.size() < n) {
    const uint64_t k = rng.Next();
    records[k] = Val(k);
  }
  return records;
}

/// A filter selective enough that hit sets are a strict, non-empty subset.
std::unique_ptr<ScanFilter> SelectiveFilter() {
  return MakeScanFilter([](uint64_t key, ByteSpan value, ByteSpan arg) {
    if (arg.empty()) return true;
    return !value.empty() && key % 3 == static_cast<uint64_t>(arg[0]) % 3;
  });
}

ScanTask MakeTask(uint64_t bucket, const ColumnStore& store,
                  const ScanFilter& filter, Bytes arg) {
  ScanTask task;
  task.bucket = bucket;
  task.columns = store.slice();
  task.filter = &filter;
  task.arg = std::move(arg);
  task.reply.type = MsgType::kScanReply;
  task.reply.key = bucket;
  return task;
}

/// Fresh tasks over `stores`, one per bucket, all with the same argument.
std::vector<ScanTask> MakeBatch(const std::vector<ColumnStore>& stores,
                                const ScanFilter& filter, const Bytes& arg) {
  std::vector<ScanTask> tasks;
  tasks.reserve(stores.size());
  for (size_t b = 0; b < stores.size(); ++b) {
    tasks.push_back(MakeTask(b, stores[b], filter, arg));
  }
  return tasks;
}

/// The ground truth: the filter's per-record predicate walked over each
/// bucket's map, in key order.
std::vector<std::vector<WireRecord>> SerialHits(
    const std::vector<std::map<uint64_t, Bytes>>& buckets,
    const ScanFilter& filter, const Bytes& arg) {
  const std::unique_ptr<ScanFilter::Prepared> prepared = filter.Prepare(arg);
  std::vector<std::vector<WireRecord>> hits(buckets.size());
  for (size_t b = 0; b < buckets.size(); ++b) {
    for (const auto& [key, value] : buckets[b]) {
      if (prepared->Matches(key, value)) {
        hits[b].push_back(WireRecord{key, value});
      }
    }
  }
  return hits;
}

void ExpectPoolMatchesSerial(
    ScanWorkerPool& pool, size_t shard_min,
    const std::vector<std::map<uint64_t, Bytes>>& buckets,
    const ScanFilter& filter, const Bytes& arg,
    const std::vector<std::vector<WireRecord>>& expected) {
  std::vector<ColumnStore> stores(buckets.size());
  for (size_t b = 0; b < buckets.size(); ++b) stores[b].Adopt(buckets[b]);
  std::vector<ScanTask> tasks = MakeBatch(stores, filter, arg);
  pool.Run(tasks, shard_min);
  ASSERT_EQ(tasks.size(), expected.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    EXPECT_TRUE(tasks[t].evaluated) << "task " << t;
    EXPECT_EQ(tasks[t].reply.records, expected[t])
        << "task " << t << " diverged (shard_min=" << shard_min << ")";
  }
}

TEST(ScanPoolTest, PoolSizeOneMatchesSerialBitForBit) {
  std::vector<std::map<uint64_t, Bytes>> buckets;
  for (uint64_t b = 0; b < 5; ++b) buckets.push_back(BuildRecords(120, b + 1));
  auto filter = SelectiveFilter();
  const Bytes arg = ToBytes("a");
  const auto expected = SerialHits(buckets, *filter, arg);
  size_t total = 0;
  for (const auto& h : expected) total += h.size();
  ASSERT_GT(total, 0u) << "filter selected nothing";

  ScanWorkerPool pool(1);
  for (size_t shard_min : {size_t{0}, size_t{1}, size_t{16}, kNoShard}) {
    ExpectPoolMatchesSerial(pool, shard_min, buckets, *filter, arg, expected);
  }
  // A size-1 pool is the serial path: no worker ever starts.
  EXPECT_EQ(pool.started_workers(), 0u);
}

TEST(ScanPoolTest, ShardThresholdSweepMatchesSerialAtTaskLevel) {
  // One large and one tiny bucket, so every threshold exercises both the
  // sharded and the unsharded branch in the same batch.
  std::vector<std::map<uint64_t, Bytes>> buckets;
  buckets.push_back(BuildRecords(700, 11));
  buckets.push_back(BuildRecords(3, 12));
  buckets.push_back(BuildRecords(256, 13));
  auto filter = SelectiveFilter();
  for (const Bytes& arg : {Bytes{}, ToBytes("b")}) {
    const auto expected = SerialHits(buckets, *filter, arg);
    for (size_t threads : {size_t{2}, size_t{4}, size_t{16}}) {
      ScanWorkerPool pool(threads);
      for (size_t shard_min :
           {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{64}, kNoShard}) {
        ExpectPoolMatchesSerial(pool, shard_min, buckets, *filter, arg,
                                expected);
      }
    }
  }
}

TEST(ScanPoolTest, RepeatedStartRunDestroyCyclesAreClean) {
  std::vector<std::map<uint64_t, Bytes>> buckets;
  for (uint64_t b = 0; b < 4; ++b) buckets.push_back(BuildRecords(90, b + 40));
  auto filter = SelectiveFilter();
  const Bytes arg = ToBytes("c");
  const auto expected = SerialHits(buckets, *filter, arg);

  for (int cycle = 0; cycle < 16; ++cycle) {
    ScanWorkerPool pool(4);
    EXPECT_EQ(pool.started_workers(), 0u) << "pool must start lazily";
    for (int batch = 0; batch < 3; ++batch) {
      ExpectPoolMatchesSerial(pool, /*shard_min=*/8, buckets, *filter, arg,
                              expected);
    }
    // Destructor joins the workers; the next cycle builds a fresh pool.
  }
  // Construct-and-destroy without ever running: nothing to join, no hang.
  for (int i = 0; i < 8; ++i) {
    ScanWorkerPool idle(8);
    EXPECT_EQ(idle.started_workers(), 0u);
  }
}

TEST(ScanPoolTest, OversubscriptionInBothDirections) {
  auto filter = SelectiveFilter();
  const Bytes arg = ToBytes("d");

  // Threads >> tasks: 32 workers, 2 buckets.
  std::vector<std::map<uint64_t, Bytes>> few;
  few.push_back(BuildRecords(50, 7));
  few.push_back(BuildRecords(8, 8));
  const auto few_expected = SerialHits(few, *filter, arg);
  ScanWorkerPool wide(32);
  ExpectPoolMatchesSerial(wide, /*shard_min=*/1, few, *filter, arg,
                          few_expected);

  // Tasks >> threads: 2 workers, 48 buckets (plus sharding pressure).
  std::vector<std::map<uint64_t, Bytes>> many;
  for (uint64_t b = 0; b < 48; ++b) many.push_back(BuildRecords(30, 100 + b));
  const auto many_expected = SerialHits(many, *filter, arg);
  ScanWorkerPool narrow(2);
  ExpectPoolMatchesSerial(narrow, /*shard_min=*/1, many, *filter, arg,
                          many_expected);
}

TEST(ScanPoolTest, EmptyBatchesAndEmptyBucketsDoNotDeadlock) {
  ScanWorkerPool pool(4);
  std::vector<ScanTask> none;
  pool.Run(none, 0);
  pool.Run(none, kNoShard);
  EXPECT_EQ(pool.started_workers(), 0u) << "empty batch must not start workers";

  // A task over an empty bucket.
  auto filter = SelectiveFilter();
  std::vector<std::map<uint64_t, Bytes>> buckets(3);
  buckets[1] = BuildRecords(20, 5);
  const auto expected = SerialHits(buckets, *filter, {});
  ExpectPoolMatchesSerial(pool, 0, buckets, *filter, {}, expected);

  // System level: draining with nothing queued is a no-op, and scanning an
  // empty file answers one empty bucket.
  LhSystem sys(LhOptions{.scan_threads = 4});
  sys.network().DrainDeferredScans();
  const uint64_t match_all =
      sys.InstallFilter([](uint64_t, ByteSpan, ByteSpan) { return true; });
  auto result = sys.NewClient()->Scan(match_all, {});
  EXPECT_EQ(result.hits.size(), 0u);
  EXPECT_EQ(result.buckets_answered, 1u);
}

TEST(ScanPoolTest, ThreadSupportGateCompilesPoolToSerialPath) {
  std::vector<std::map<uint64_t, Bytes>> buckets;
  buckets.push_back(BuildRecords(64, 21));
  buckets.push_back(BuildRecords(64, 22));
  auto filter = SelectiveFilter();
  const auto expected = SerialHits(buckets, *filter, {});

  ScanWorkerPool pool(4);
  ExpectPoolMatchesSerial(pool, /*shard_min=*/1, buckets, *filter, {},
                          expected);
#if ESSDDS_THREADS
  EXPECT_TRUE(ScanWorkerPool::threads_compiled_in());
  EXPECT_EQ(pool.started_workers(), 4u)
      << "a parallel batch must have started the full pool";
#else
  // Thread support compiled out: the pool IS the serial path — identical
  // results (asserted above) with no worker ever created.
  EXPECT_FALSE(ScanWorkerPool::threads_compiled_in());
  EXPECT_EQ(pool.started_workers(), 0u);
#endif
}

// --- system level: the pool behind LhSystem scans ---

/// One LH* file plus a selective filter and a deterministic workload.
struct Workload {
  explicit Workload(size_t scan_threads, size_t shard_min = 1024)
      : sys(LhOptions{.bucket_capacity = 8,
                      .scan_threads = scan_threads,
                      .scan_shard_min_records = shard_min}),
        client(sys.NewClient()) {
    filter_id =
        sys.InstallFilter([](uint64_t key, ByteSpan value, ByteSpan arg) {
          if (arg.empty()) return true;
          return !value.empty() &&
                 (key % arg.size()) == static_cast<uint64_t>(arg[0] % 7);
        });
  }

  void Fill(int n, uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      const uint64_t k = rng.Next();
      client->Insert(k, Val(k));
    }
  }

  LhSystem sys;
  LhClient* client;
  uint64_t filter_id = 0;
};

TEST(ScanPoolTest, SystemShardThresholdSweepMatchesSerial) {
  Workload serial(0);
  serial.Fill(1500, 77);
  serial.sys.network().ResetStats();
  const Bytes arg = ToBytes("sweep");
  const auto expected = serial.client->Scan(serial.filter_id, arg);
  const NetworkStats expected_stats = serial.sys.network().stats();
  ASSERT_GT(expected.hits.size(), 0u);

  for (size_t shard_min :
       {size_t{1}, size_t{2}, size_t{7}, size_t{64}, kNoShard}) {
    SCOPED_TRACE("shard_min " + std::to_string(shard_min));
    Workload sharded(4, shard_min);
    sharded.Fill(1500, 77);
    sharded.sys.network().ResetStats();
    const auto got = sharded.client->Scan(sharded.filter_id, arg);
    EXPECT_EQ(got.hits, expected.hits);
    EXPECT_EQ(got.buckets_answered, expected.buckets_answered);
    EXPECT_EQ(sharded.sys.network().stats(), expected_stats);
  }
}

TEST(ScanPoolTest, OnePoolServesManyScansAndManySystemsCycle) {
  // Pool reuse: one system, many scans — the pool starts once and serves
  // every batch.
  Workload serial(0), pooled(4, /*shard_min=*/4);
  serial.Fill(600, 9);
  pooled.Fill(600, 9);
  for (int i = 0; i < 12; ++i) {
    const Bytes arg(1, static_cast<uint8_t>('a' + i));
    EXPECT_EQ(pooled.client->Scan(pooled.filter_id, arg).hits,
              serial.client->Scan(serial.filter_id, arg).hits)
        << "scan " << i;
  }
#if ESSDDS_THREADS
  EXPECT_EQ(pooled.sys.network().scan_pool().started_workers(), 4u);
#endif
  // System churn: each LhSystem owns its pool; create, scan, destroy.
  for (int cycle = 0; cycle < 6; ++cycle) {
    Workload w(4, /*shard_min=*/2);
    w.Fill(200, 50 + static_cast<uint64_t>(cycle));
    const auto result = w.client->Scan(w.filter_id, {});
    EXPECT_EQ(result.hits.size(), 200u) << "cycle " << cycle;
  }
}

// --- the deferred-scan snapshot contract (dangling-pointer hazard) ---

TEST(ScanPoolDeathTest, StaleSnapshotAbortsInsteadOfReadingDanglingState) {
  // The backstop behind the resolve-before-mutation protocol: if a mutation
  // path ever misses its AboutToMutateRecords() call, evaluation must abort
  // on the generation mismatch, not silently scan a mutated (or freed)
  // store.
  ColumnStore store;
  store.Adopt(BuildRecords(10, 99));
  auto filter = SelectiveFilter();
  ScanTask task = MakeTask(0, store, *filter, {});
  uint64_t generation = 7;
  task.live_generation = &generation;
  task.enqueue_generation = 7;
  ExecuteScanTask(task);  // generations agree: fine
  EXPECT_TRUE(task.evaluated);

  ScanTask stale = MakeTask(0, store, *filter, {});
  stale.live_generation = &generation;
  stale.enqueue_generation = 7;
  generation = 8;  // the store "mutated" after enqueue
  EXPECT_DEATH(ExecuteScanTask(stale), "mutated record map");
}

/// Bare reply sink for hand-rolled scan fan-outs.
struct Collector final : Site {
  std::vector<Message> replies;
  void OnMessage(Message& msg, Network&) override {
    replies.push_back(std::move(msg));
  }
};

// A split delivered while a scan task is queued must not change what the
// task returns: the bucket resolves the task against the pre-split content
// (what serial inline evaluation saw at kScan delivery). Scripted as
// pause(coordinator) / overflow / scan fan-out / resume / split / drain.
TEST(ScanPoolTest, SplitArrivingWhileTaskQueuedKeepsPreSplitSnapshot) {
  LhOptions opt;
  opt.bucket_capacity = 8;
  opt.hash_keys = false;  // raw placement: the split moves exactly the odds
  opt.scan_threads = 4;
  opt.scan_shard_min_records = 2;
  opt.network_mode = NetworkMode::kEvent;
  opt.event_net.seed = 13;
  LhSystem sys(opt);
  EventNetwork* net = sys.event_network();
  ASSERT_NE(net, nullptr);
  const uint64_t match_all =
      sys.InstallFilter([](uint64_t, ByteSpan, ByteSpan) { return true; });
  LhClient* client = sys.NewClient();

  for (uint64_t k = 1; k <= 8; ++k) client->Insert(k, Val(k));
  net->PumpUntilIdle();
  ASSERT_EQ(sys.bucket_count(), 1u);

  // Park the overflow report at the paused coordinator: the split is now
  // pending but cannot start.
  net->PauseSite(sys.CoordinatorSite());
  client->Insert(9, Val(9));
  net->PumpUntilIdle();
  ASSERT_EQ(net->parked_messages(), 1u) << "overflow not parked";
  ASSERT_EQ(sys.bucket_count(), 1u);

  // Hand-rolled scan fan-out, so the test controls what happens between the
  // task enqueue and the drain.
  Collector collector;
  const SiteId cid = sys.network().Register(&collector);
  Message scan;
  scan.type = MsgType::kScan;
  scan.from = cid;
  scan.reply_to = cid;
  scan.request_id = 4242;
  scan.filter_id = match_all;
  scan.assumed_level = 0;
  scan.to = sys.SiteOfBucket(0);
  sys.network().Send(std::move(scan));
  net->PumpUntilIdle();
  ASSERT_TRUE(collector.replies.empty()) << "scan answered before drain";

  // Release the overflow: the split races the queued task and mutates
  // bucket 0's record store. The bucket must resolve the task first.
  net->ResumeSite(sys.CoordinatorSite());
  net->PumpUntilIdle();
  ASSERT_EQ(sys.bucket_count(), 2u) << "split did not run";
  ASSERT_LT(sys.bucket(0).record_count(), 9u) << "split moved nothing";

  sys.network().DrainDeferredScans();
  net->PumpUntilIdle();

  // The reply carries the full pre-split bucket — exactly the serial
  // result — not the post-split remainder.
  ASSERT_EQ(collector.replies.size(), 1u);
  std::vector<WireRecord> expected;
  for (uint64_t k = 1; k <= 9; ++k) expected.push_back(WireRecord{k, Val(k)});
  EXPECT_EQ(collector.replies[0].records, expected);
}

// A kScan parked at a paused bucket replays after its initiator already
// drained: the late task waits in the pending queue, and the next mutation
// (here an insert) must resolve it before touching the store — otherwise the
// snapshot assert aborts. The eventual reply reaches the client as a
// discarded stale reply; the next scan is complete and correct.
TEST(ScanPoolTest, LateReplayedScanResolvesBeforeNextMutation) {
  LhOptions opt;
  opt.bucket_capacity = 64;
  opt.scan_threads = 4;
  opt.scan_shard_min_records = 2;
  opt.network_mode = NetworkMode::kEvent;
  opt.event_net.seed = 29;
  LhSystem sys(opt);
  EventNetwork* net = sys.event_network();
  const uint64_t match_all =
      sys.InstallFilter([](uint64_t, ByteSpan, ByteSpan) { return true; });
  LhClient* client = sys.NewClient();

  for (uint64_t k = 1; k <= 6; ++k) client->Insert(k, Val(k));
  net->PumpUntilIdle();

  // The whole fan-out parks: the scan returns empty-handed.
  net->PauseSite(sys.SiteOfBucket(0));
  auto blocked = client->Scan(match_all, {});
  EXPECT_EQ(blocked.buckets_answered, 0u);
  EXPECT_EQ(blocked.hits.size(), 0u);

  // Replay the parked kScan: the bucket enqueues a task nobody is waiting
  // for. The following insert mutates the store and must resolve it first.
  net->ResumeSite(sys.SiteOfBucket(0));
  net->PumpUntilIdle();
  client->Insert(7, Val(7));
  net->PumpUntilIdle();

  // The next scan drains both replies: its own (7 records) and the stale
  // one (6 pre-insert records), which the client discards.
  auto fresh = client->Scan(match_all, {});
  EXPECT_EQ(fresh.buckets_answered, 1u);
  EXPECT_EQ(fresh.hits.size(), 7u);
  EXPECT_EQ(client->stale_reply_count(), 1u);
}

}  // namespace
}  // namespace essdds::sdds
