#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sdds/lh_system.h"
#include "util/random.h"

// End-to-end durability: an LhSystem with a data_dir must survive a full
// process restart — modelled by destroying the system object and building a
// new one over the same directory — with every bucket's records, level, the
// coordinator extent, and the scan results exactly
// as the last acknowledged state left them. Splits, merges, bucket-number
// reuse, and event-network pause/resume all ride through the same log.

namespace essdds::sdds {
namespace {

#if ESSDDS_PERSIST

Bytes Val(uint64_t k) { return ToBytes("payload-" + std::to_string(k)); }

class PersistenceSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("essdds_sys_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  LhOptions Options() {
    LhOptions o;
    o.bucket_capacity = 8;
    o.data_dir = dir_;
    return o;
  }

  /// Every bucket's full state, keyed by bucket number.
  struct Snapshot {
    std::vector<std::map<uint64_t, Bytes>> records;
    std::vector<uint32_t> levels;
    uint32_t level = 0;
    uint64_t split_pointer = 0;

    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };

  static Snapshot Take(LhSystem& sys) {
    Snapshot s;
    for (uint64_t b = 0; b < sys.bucket_count(); ++b) {
      s.records.push_back(sys.bucket(b).records());
      s.levels.push_back(sys.bucket(b).level());
    }
    s.level = sys.coordinator().level();
    s.split_pointer = sys.coordinator().split_pointer();
    return s;
  }

  std::string dir_;
};

TEST_F(PersistenceSystemTest, RestartAfterSplitsRecoversEverything) {
  Snapshot before;
  std::vector<uint64_t> keys;
  {
    LhSystem sys(Options());
    LhClient* c = sys.NewClient();
    Rng rng(21);
    for (int i = 0; i < 400; ++i) {
      keys.push_back(rng.Next());
      c->Insert(keys.back(), Val(keys.back()));
    }
    ASSERT_GT(sys.bucket_count(), 8u) << "workload did not split";
    before = Take(sys);
  }

  LhSystem sys(Options());
  EXPECT_EQ(sys.recovered_bucket_count(), before.records.size());
  EXPECT_EQ(Take(sys), before) << "recovered state differs from pre-restart";

  // The file keeps serving: lookups, scans, and further growth all work.
  LhClient* c = sys.NewClient();
  for (uint64_t k : keys) {
    auto r = c->Lookup(k);
    ASSERT_TRUE(r.ok()) << "key " << k;
    EXPECT_EQ(*r, Val(k));
  }
  const uint64_t all = sys.InstallFilter(
      [](uint64_t, ByteSpan, ByteSpan) { return true; });
  auto scan = c->Scan(all, {});
  EXPECT_EQ(scan.hits.size(), keys.size());

  const size_t extent = sys.bucket_count();
  Rng rng(22);
  for (int i = 0; i < 200; ++i) {
    const uint64_t k = rng.Next();
    c->Insert(k, Val(k));
  }
  EXPECT_GT(sys.bucket_count(), extent) << "post-restart splits broken";
}

TEST_F(PersistenceSystemTest, RestartAfterShrinkSkipsRetiredBuckets) {
  LhOptions opts = Options();
  opts.merge_threshold = 0.25;
  Snapshot before;
  std::vector<uint64_t> survivors;
  {
    LhSystem sys(opts);
    LhClient* c = sys.NewClient();
    Rng rng(31);
    std::vector<uint64_t> keys;
    for (int i = 0; i < 600; ++i) {
      keys.push_back(rng.Next());
      c->Insert(keys.back(), Val(keys.back()));
    }
    const size_t peak = sys.bucket_count();
    for (size_t i = 0; i + 40 < keys.size(); ++i) {
      ASSERT_TRUE(c->Delete(keys[i]).ok());
    }
    survivors.assign(keys.end() - 40, keys.end());
    ASSERT_LT(sys.bucket_count(), peak) << "file did not shrink";
    before = Take(sys);
  }

  LhSystem sys(opts);
  EXPECT_EQ(sys.recovered_bucket_count(), before.records.size());
  EXPECT_EQ(Take(sys), before);
  LhClient* c = sys.NewClient();
  for (uint64_t k : survivors) {
    auto r = c->Lookup(k);
    ASSERT_TRUE(r.ok()) << "survivor " << k;
    EXPECT_EQ(*r, Val(k));
  }
}

TEST_F(PersistenceSystemTest, BucketNumberReuseAfterMergeThenRestart) {
  LhOptions opts = Options();
  opts.merge_threshold = 0.25;
  Snapshot before;
  {
    LhSystem sys(opts);
    LhClient* c = sys.NewClient();
    Rng rng(41);
    // Grow, shrink, grow again: bucket numbers retire and come back, and
    // each rebirth must supersede the retired log (fresh epoch) rather
    // than replay into it.
    std::set<uint64_t> live;
    for (int cycle = 0; cycle < 2; ++cycle) {
      for (int i = 0; i < 300; ++i) {
        const uint64_t k = rng.Next();
        c->Insert(k, Val(k));
        live.insert(k);
      }
      auto it = live.begin();
      while (it != live.end()) {
        if (rng.Bernoulli(0.8)) {
          ASSERT_TRUE(c->Delete(*it).ok());
          it = live.erase(it);
        } else {
          ++it;
        }
      }
    }
    before = Take(sys);
  }

  LhSystem sys(opts);
  EXPECT_EQ(sys.recovered_bucket_count(), before.records.size());
  EXPECT_EQ(Take(sys), before);
}

TEST_F(PersistenceSystemTest, EventNetworkPauseResumeThenRestart) {
  LhOptions opts = Options();
  opts.network_mode = NetworkMode::kEvent;
  opts.event_net.seed = 7;
  Snapshot before;
  std::vector<uint64_t> keys;
  {
    LhSystem sys(opts);
    LhClient* c = sys.NewClient();
    Rng rng(51);
    for (int i = 0; i < 120; ++i) {
      keys.push_back(rng.Next());
      c->Insert(keys.back(), Val(keys.back()));
    }
    // Knock a site out for a stretch of virtual time: requests park, the
    // client retries, and every op still lands — then quiesce and "kill
    // the process".
    ASSERT_GT(sys.bucket_count(), 1u);
    sys.event_network()->PauseSite(sys.bucket(0).site(),
                                   /*duration_us=*/2'000'000);
    for (int i = 0; i < 60; ++i) {
      keys.push_back(rng.Next());
      c->Insert(keys.back(), Val(keys.back()));
    }
    sys.event_network()->PumpUntilIdle();
    before = Take(sys);
  }

  LhSystem sys(opts);
  EXPECT_EQ(sys.recovered_bucket_count(), before.records.size());
  EXPECT_EQ(Take(sys), before);
  LhClient* c = sys.NewClient();
  for (uint64_t k : keys) {
    auto r = c->Lookup(k);
    ASSERT_TRUE(r.ok()) << "key " << k;
    EXPECT_EQ(*r, Val(k));
  }
}

TEST_F(PersistenceSystemTest, CheckpointCompactionPreservesRecovery) {
  LhOptions opts = Options();
  opts.log_checkpoint_min_bytes = 256;  // checkpoint aggressively
  Snapshot before;
  {
    LhSystem sys(opts);
    LhClient* c = sys.NewClient();
    Rng rng(61);
    std::vector<uint64_t> keys;
    for (int i = 0; i < 300; ++i) {
      keys.push_back(rng.Next());
      c->Insert(keys.back(), Val(keys.back()));
      if (i % 3 == 0 && keys.size() > 10) {
        // Churn so the logs outgrow their floors repeatedly.
        const uint64_t k = keys[rng.Uniform(keys.size())];
        c->Insert(k, Val(k ^ 1));
      }
    }
    before = Take(sys);
    if (obs::kMetricsEnabled) {
      ASSERT_GT(sys.network().metrics().counter("persist.checkpoints").value(),
                0u)
          << "workload never compacted — floor too high for the test";
    }
  }
  LhSystem sys(opts);
  EXPECT_EQ(Take(sys), before);
}

TEST_F(PersistenceSystemTest, RecoveryMetricsAppearInRegistry) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  {
    LhSystem sys(Options());
    LhClient* c = sys.NewClient();
    for (uint64_t k = 0; k < 100; ++k) c->Insert(k, Val(k));
  }
  LhSystem sys(Options());
  obs::MetricRegistry& m = sys.network().metrics();
  EXPECT_EQ(m.counter("persist.recovered_buckets").value(),
            sys.recovered_bucket_count());
  EXPECT_GT(m.counter("persist.replayed_records").value(), 0u);
  const std::string json = m.ToJson();
  for (const char* name :
       {"persist.recovered_buckets", "persist.replayed_records",
        "persist.recovery_us", "persist.log_bytes"}) {
    EXPECT_NE(json.find(name), std::string::npos)
        << name << " missing from metrics JSON";
  }
}

TEST_F(PersistenceSystemTest, NoPlaintextPayloadOnDiskAcrossRestructuring) {
  // Distinctive payloads pushed through splits and merges: whatever path a
  // record takes (put, bulk move, merge transfer, checkpoint), its bytes
  // must never appear in the clear in any log file.
  const std::string needle = "EXFILTRATABLE-SECRET-NEEDLE";
  LhOptions opts = Options();
  opts.merge_threshold = 0.25;
  {
    LhSystem sys(opts);
    LhClient* c = sys.NewClient();
    Rng rng(71);
    std::vector<uint64_t> keys;
    for (int i = 0; i < 200; ++i) {
      keys.push_back(rng.Next());
      c->Insert(keys.back(),
                ToBytes(needle + "-" + std::to_string(keys.back())));
    }
    for (size_t i = 0; i + 20 < keys.size(); ++i) {
      ASSERT_TRUE(c->Delete(keys[i]).ok());
    }
  }
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    ++files;
    std::FILE* f = std::fopen(entry.path().string().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    Bytes image;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      image.insert(image.end(), buf, buf + n);
    }
    std::fclose(f);
    auto it = std::search(image.begin(), image.end(), needle.begin(),
                          needle.end());
    EXPECT_EQ(it, image.end())
        << "plaintext payload in " << entry.path().string();
  }
  EXPECT_GT(files, 0u);
}

TEST_F(PersistenceSystemTest, FreshDirectoryStartsEmpty) {
  LhSystem sys(Options());
  EXPECT_EQ(sys.recovered_bucket_count(), 0u);
  EXPECT_EQ(sys.bucket_count(), 1u);
  EXPECT_EQ(sys.TotalRecords(), 0u);
}

#else  // !ESSDDS_PERSIST

TEST(PersistenceSystemStubTest, DataDirIsIgnoredWhenCompiledOut) {
  LhOptions opts;
  opts.data_dir = (std::filesystem::path(::testing::TempDir()) /
                   "essdds_sys_stub")
                      .string();
  LhSystem sys(opts);  // logs a warning, stays RAM-only
  EXPECT_EQ(sys.recovered_bucket_count(), 0u);
  LhClient* c = sys.NewClient();
  c->Insert(1, ToBytes("ram-only"));
  auto r = c->Lookup(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ToBytes("ram-only"));
}

#endif  // ESSDDS_PERSIST

}  // namespace
}  // namespace essdds::sdds
