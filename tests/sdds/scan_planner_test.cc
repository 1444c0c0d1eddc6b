// Shard-planner battery: the index-range carve over a bucket's store must
// survive degenerate key distributions — keys pinned at 0 and UINT64_MAX,
// tight clusters, heavy skew, consecutive keys, single records — without
// crashing, double-covering, or dropping records, and splice back
// byte-identically to a plain predicate walk over the same records at
// every thread count and shard threshold.

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sdds/column_store.h"
#include "sdds/lh_options.h"
#include "sdds/scan_executor.h"
#include "util/bytes.h"
#include "util/random.h"

namespace essdds::sdds {
namespace {

Bytes Val(uint64_t k) { return ToBytes("value-" + std::to_string(k)); }

std::unique_ptr<ScanFilter> SelectiveFilter() {
  return MakeScanFilter([](uint64_t key, ByteSpan value, ByteSpan arg) {
    if (arg.empty()) return true;
    return !value.empty() && key % 3 == static_cast<uint64_t>(arg[0]) % 3;
  });
}

/// The distributions most likely to trip a shard planner. Each returns the
/// record map; the sweep runs every (distribution, thread count, shard
/// threshold) combination against the predicate-walk oracle.
std::vector<std::pair<std::string, std::map<uint64_t, Bytes>>>
ExtremeDistributions() {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<std::pair<std::string, std::map<uint64_t, Bytes>>> out;

  auto add = [&](std::string name, std::vector<uint64_t> keys) {
    std::map<uint64_t, Bytes> records;
    for (uint64_t k : keys) records[k] = Val(k);
    out.emplace_back(std::move(name), std::move(records));
  };

  add("empty", {});
  add("single_zero", {0});
  add("single_max", {kMax});
  add("both_extremes", {0, kMax});
  // Full-span with all interior boundaries collapsing onto one record.
  add("extremes_and_midpoint", {0, kMax / 2, kMax});
  {
    std::vector<uint64_t> keys;  // tight cluster far from the origin
    for (uint64_t k = 0; k < 100; ++k) keys.push_back(1'000'000 + k);
    add("tight_cluster", std::move(keys));
  }
  {
    std::vector<uint64_t> keys;  // consecutive from zero: span == n - 1
    for (uint64_t k = 0; k < 64; ++k) keys.push_back(k);
    add("consecutive", std::move(keys));
  }
  {
    // One outlier at kMax drags the span: every interior boundary lands
    // past the cluster, so all but the first and last ranges are empty.
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 50; ++k) keys.push_back(k);
    keys.push_back(kMax);
    add("cluster_plus_max_outlier", std::move(keys));
  }
  {
    std::vector<uint64_t> keys;  // two clusters hugging both ends
    for (uint64_t k = 0; k < 40; ++k) {
      keys.push_back(k);
      keys.push_back(kMax - k);
    }
    add("bimodal_extremes", std::move(keys));
  }
  {
    Rng rng(51);  // uniform hashed keys: the well-behaved baseline
    std::vector<uint64_t> keys;
    for (int i = 0; i < 200; ++i) keys.push_back(rng.Next());
    add("uniform", std::move(keys));
  }
  return out;
}

ScanTask MakeTask(const ColumnStore& columns,
                  const ScanFilter::Prepared* prepared) {
  ScanTask task;
  task.bucket = 0;
  task.columns = columns.slice();
  task.prepared = prepared;
  task.reply.type = MsgType::kScanReply;
  return task;
}

/// The oracle: the filter's per-record predicate walked over the test's own
/// map, in key order.
std::vector<WireRecord> PredicateWalk(const std::map<uint64_t, Bytes>& records,
                                      const ScanFilter& filter,
                                      const Bytes& arg) {
  const std::unique_ptr<ScanFilter::Prepared> prepared = filter.Prepare(arg);
  std::vector<WireRecord> hits;
  for (const auto& [key, value] : records) {
    if (prepared->Matches(key, value)) hits.push_back(WireRecord{key, value});
  }
  return hits;
}

void ExpectSameHits(const std::vector<WireRecord>& actual,
                    const std::vector<WireRecord>& expected,
                    const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].key, expected[i].key) << label << " hit " << i;
    EXPECT_EQ(actual[i].value, expected[i].value) << label << " hit " << i;
  }
}

TEST(ScanPlannerTest, ExtremeKeyDistributionsMatchSerial) {
  const auto distributions = ExtremeDistributions();
  const std::unique_ptr<ScanFilter> filter = SelectiveFilter();
  const Bytes arg = {uint8_t{1}};
  const std::unique_ptr<ScanFilter::Prepared> prepared = filter->Prepare(arg);
  for (const auto& [name, records] : distributions) {
    ColumnStore columns;
    columns.Adopt(records);
    const std::vector<WireRecord> expected =
        PredicateWalk(records, *filter, arg);
    {
      ScanTask task = MakeTask(columns, prepared.get());
      ExecuteScanTask(task);
      ExpectSameHits(task.reply.records, expected, name + " serial");
    }
    for (const size_t threads : {2u, 4u, 8u, 16u}) {
      for (const size_t shard_min : {0u, 1u, 2u, 7u, 1000u}) {
        ScanWorkerPool pool(threads);
        const std::string label = name + " threads=" +
                                  std::to_string(threads) + " shard_min=" +
                                  std::to_string(shard_min);
        std::vector<ScanTask> tasks;
        tasks.push_back(MakeTask(columns, prepared.get()));
        pool.Run(tasks, shard_min);
        ExpectSameHits(tasks[0].reply.records, expected, label);
      }
    }
  }
}

TEST(ScanPlannerTest, MatchAllKeepsEveryRecordExactlyOnce) {
  // With a pass-everything filter the reply must be the whole map, in key
  // order, regardless of how the shards were carved — a dropped or
  // double-covered range shows up immediately here.
  const auto distributions = ExtremeDistributions();
  const std::unique_ptr<ScanFilter> filter = SelectiveFilter();
  const std::unique_ptr<ScanFilter::Prepared> prepared = filter->Prepare({});
  for (const auto& [name, records] : distributions) {
    ColumnStore columns;
    columns.Adopt(records);
    ScanWorkerPool pool(8);
    std::vector<ScanTask> tasks;
    tasks.push_back(MakeTask(columns, prepared.get()));
    pool.Run(tasks, 1);
    const auto& hits = tasks[0].reply.records;
    ASSERT_EQ(hits.size(), records.size()) << name;
    size_t i = 0;
    for (const auto& [key, value] : records) {
      EXPECT_EQ(hits[i].key, key) << name << " index " << i;
      EXPECT_EQ(hits[i].value, value) << name << " index " << i;
      ++i;
    }
  }
}

}  // namespace
}  // namespace essdds::sdds
