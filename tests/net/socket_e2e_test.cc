// Multi-process end-to-end: 3 real server processes over unix-domain
// sockets serve a pipelined SocketClient workload through several splits,
// and the results are byte-identical to the same workload against an
// in-process LhSystem on SimNetwork. A SIGKILLed server then surfaces as a
// clean Status::Unavailable through the client's timeout/retry machinery —
// never a hang — while buckets on the surviving hosts keep serving.

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/bucket_host.h"
#include "net/socket_client.h"
#include "obs/metrics.h"
#include "sdds/lh_client.h"
#include "sdds/lh_system.h"

namespace essdds::net {
namespace {

// The filter set both the servers and the baseline install, in the same
// order (the wire carries only the filter index).
//   0: match-all   1: substring-of-value
void InstallFilters(auto& target) {
  using essdds::ByteSpan;
  target.InstallFilter(sdds::MakeScanFilter(
      [](uint64_t, ByteSpan, ByteSpan) { return true; }));
  target.InstallFilter(
      sdds::MakeScanFilter([](uint64_t, ByteSpan value, ByteSpan arg) {
        if (arg.empty() || arg.size() > value.size()) return false;
        for (size_t i = 0; i + arg.size() <= value.size(); ++i) {
          if (std::memcmp(value.data() + i, arg.data(), arg.size()) == 0) {
            return true;
          }
        }
        return false;
      }));
}

sdds::LhOptions ServerOptions() {
  sdds::LhOptions lh;
  lh.bucket_capacity = 8;  // small: the workload drives many splits
  return lh;
}

class SocketE2eTest : public ::testing::Test {
 protected:
  static constexpr size_t kHosts = 3;

  /// Cluster size; overridden by the power-of-two fixture below.
  virtual size_t host_count() const { return kHosts; }

  void SetUp() override {
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("e2e-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
    metrics_path_ = dir_ + "/coord-metrics.json";
    std::string spec;
    for (size_t h = 0; h < host_count(); ++h) {
      if (h) spec += ",";
      spec += "uds:" + dir_ + "/h" + std::to_string(h) + ".sock";
    }
    auto map = ClusterMap::Parse(spec);
    ASSERT_TRUE(map.ok());
    cluster_ = *map;
  }

  void TearDown() override {
    for (pid_t pid : pids_) {
      if (pid > 0) ::kill(pid, SIGKILL);
    }
    for (pid_t pid : pids_) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
    std::filesystem::remove_all(dir_);
  }

  /// Forks one real server process for cluster host `h`.
  void SpawnServer(size_t h) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      BucketHost::Config config;
      config.cluster = cluster_;
      config.host_index = h;
      config.options = ServerOptions();
      // Host 0 runs the coordinator; its periodic metrics dump is the only
      // window this test has into another process's counters.
      if (h == 0) config.metrics_path = metrics_path_;
      BucketHost host(config);
      InstallFilters(host);
      if (!host.Start().ok()) ::_exit(3);
      for (;;) host.RunOnce(50);
    }
    pids_.push_back(pid);
  }

  void SpawnCluster() {
    for (size_t h = 0; h < host_count(); ++h) SpawnServer(h);
  }

  std::unique_ptr<SocketClient> NewClient(uint64_t timeout_us,
                                          uint32_t retries,
                                          uint32_t client_id = 0) {
    SocketClient::Options opts;
    opts.cluster = cluster_;
    opts.client_id = client_id;
    opts.lh = ServerOptions();
    opts.lh.request_timeout_us = timeout_us;
    opts.lh.max_request_retries = retries;
    auto client = std::make_unique<SocketClient>(opts);
    // Servers may still be binding their sockets; retry the connect.
    Status s = Status::OK();
    for (int attempt = 0; attempt < 100; ++attempt) {
      s = client->Connect();
      if (s.ok()) return client;
      ::usleep(20'000);
    }
    ADD_FAILURE() << "connect failed: " << s.ToString();
    return client;
  }

  static std::string ValueFor(uint64_t key) {
    return "record " + std::to_string(key) + " tag " +
           std::to_string(key % 10);
  }

  /// Reads counter `name` out of the coordinator host's metrics JSON dump;
  /// -1 when the file or the counter is not there (yet).
  int64_t CoordinatorCounter(const std::string& name) const {
    std::ifstream in(metrics_path_);
    if (!in) return -1;
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::string needle = "\"" + name + "\":";
    const size_t pos = json.find(needle);
    if (pos == std::string::npos) return -1;
    return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
  }

  std::string dir_;
  std::string metrics_path_;
  ClusterMap cluster_;
  std::vector<pid_t> pids_;
};

TEST_F(SocketE2eTest, WorkloadByteIdenticalToSimNetwork) {
  SpawnCluster();
  auto client = NewClient(/*timeout_us=*/2'000'000, /*retries=*/8);

  // The reference: identical options, filters, and op sequence on the
  // synchronous in-process simulator.
  sdds::LhSystem baseline(ServerOptions());
  InstallFilters(baseline);
  sdds::LhClient* ref = baseline.NewClient();

  const uint64_t kOps = 400;  // capacity 8 -> dozens of splits
  auto key_of = [](uint64_t i) { return i * 97 + 3; };

  // Insert pass (pipelined on the socket side; completion order differs,
  // per-key results may not).
  for (uint64_t i = 0; i < kOps; ++i) {
    const std::string v = ValueFor(key_of(i));
    ASSERT_TRUE(
        client->SubmitInsert(key_of(i), Bytes(v.begin(), v.end())).ok());
    ref->Insert(key_of(i), Bytes(v.begin(), v.end()));
  }
  ASSERT_TRUE(client->AwaitAll().ok());

  // Overwrite a slice; both sides must report "replaced".
  for (uint64_t i = 0; i < kOps; i += 10) {
    const std::string v = ValueFor(key_of(i)) + " v2";
    auto replaced = client->Insert(key_of(i), Bytes(v.begin(), v.end()));
    ASSERT_TRUE(replaced.ok());
    const bool ref_replaced = ref->Insert(key_of(i), Bytes(v.begin(), v.end()));
    EXPECT_EQ(*replaced, ref_replaced) << "key " << key_of(i);
  }

  // Delete a different slice; statuses must agree (all found).
  for (uint64_t i = 5; i < kOps; i += 10) {
    EXPECT_TRUE(client->Delete(key_of(i)).ok());
    EXPECT_TRUE(ref->Delete(key_of(i)).ok());
  }

  // Full read-back: byte-identical values, including NotFound agreement.
  for (uint64_t i = 0; i < kOps; ++i) {
    auto got = client->Lookup(key_of(i));
    auto want = ref->Lookup(key_of(i));
    ASSERT_EQ(got.ok(), want.ok()) << "key " << key_of(i);
    if (got.ok()) {
      EXPECT_EQ(*got, *want) << "key " << key_of(i);
    } else {
      EXPECT_TRUE(got.status().IsNotFound());
    }
  }
  // A lookup of a never-inserted key.
  EXPECT_TRUE(client->Lookup(1).status().IsNotFound());

  // Scans: substring filter and match-all. Hits are compared key-sorted,
  // the repo's canonical form for cross-network byte-identity (see
  // tests/sdds/interleaving_test.cc): a real-time cluster's physical
  // bucket placement legitimately differs from the synchronous simulator's
  // (overflow reports race in-flight splits and are re-raised on later
  // inserts), so (bucket, key) order is placement-dependent while the hit
  // set — keys and payload bytes — must match exactly.
  auto sorted_hits = [](std::vector<sdds::WireRecord> hits) {
    std::sort(hits.begin(), hits.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return hits;
  };
  const std::string needle = "tag 7";
  auto scan = client->Scan(1, Bytes(needle.begin(), needle.end()));
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  auto ref_scan = ref->Scan(1, Bytes(needle.begin(), needle.end()));
  const auto got_hits = sorted_hits(std::move(scan->hits));
  const auto want_hits = sorted_hits(std::move(ref_scan.hits));
  ASSERT_EQ(got_hits.size(), want_hits.size());
  for (size_t i = 0; i < got_hits.size(); ++i) {
    EXPECT_EQ(got_hits[i].key, want_hits[i].key);
    EXPECT_EQ(got_hits[i].value, want_hits[i].value);
  }
  EXPECT_GT(got_hits.size(), 0u);

  auto all = client->Scan(0, {});
  ASSERT_TRUE(all.ok());
  auto ref_all = ref->Scan(0, {});
  const auto got_all = sorted_hits(std::move(all->hits));
  const auto want_all = sorted_hits(std::move(ref_all.hits));
  ASSERT_EQ(got_all.size(), want_all.size());
  for (size_t i = 0; i < got_all.size(); ++i) {
    EXPECT_EQ(got_all[i].key, want_all[i].key);
    EXPECT_EQ(got_all[i].value, want_all[i].value);
  }

  // The workload really went through splits: the client image learned a
  // multi-bucket file, the scan answered from more buckets than hosts, and
  // the extent spread over every host (round-robin placement).
  EXPECT_GT(client->image().BucketCount(), kHosts);
  EXPECT_GT(all->buckets_answered, kHosts);
}

TEST_F(SocketE2eTest, PipeliningKeepsManyOpsInFlight) {
  SpawnCluster();
  auto client = NewClient(2'000'000, 8);
  std::vector<uint64_t> tokens;
  for (uint64_t i = 0; i < 64; ++i) {
    const std::string v = ValueFor(i + 1);
    auto token = client->SubmitInsert(i + 1, Bytes(v.begin(), v.end()));
    ASSERT_TRUE(token.ok());
    tokens.push_back(*token);
  }
  // Tokens resolve in any order.
  for (auto it = tokens.rbegin(); it != tokens.rend(); ++it) {
    auto r = client->Await(*it);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->found);  // fresh keys: nothing replaced
  }
  EXPECT_EQ(client->inflight(), 0u);
}

TEST_F(SocketE2eTest, KilledServerYieldsUnavailableNotAHang) {
  SpawnCluster();
  auto loader = NewClient(2'000'000, 8);

  const uint64_t kOps = 200;
  auto key_of = [](uint64_t i) { return i * 31 + 11; };
  for (uint64_t i = 0; i < kOps; ++i) {
    const std::string v = ValueFor(key_of(i));
    ASSERT_TRUE(
        loader->SubmitInsert(key_of(i), Bytes(v.begin(), v.end())).ok());
  }
  ASSERT_TRUE(loader->AwaitAll().ok());

  // The probing client connects while every host is still alive, with a
  // short budget: 100ms timeout, 2 retries -> an op against a dead bucket
  // resolves in well under a second.
  auto prober = NewClient(/*timeout_us=*/100'000, /*retries=*/2,
                          /*client_id=*/1);
  ASSERT_TRUE(prober->Lookup(key_of(0)).ok());  // sanity while all alive

  // SIGKILL host 1 mid-run: no shutdown handshake, sockets die with it.
  ASSERT_EQ(::kill(pids_[1], SIGKILL), 0);
  ASSERT_EQ(::waitpid(pids_[1], nullptr, 0), pids_[1]);
  pids_[1] = -1;

  // Probe keys until both outcomes appear: ops on surviving hosts still
  // answer correctly, ops on the dead host's buckets fail with a clean
  // Unavailable from retry exhaustion.
  size_t ok_count = 0;
  size_t unavailable_count = 0;
  for (uint64_t i = 0; i < kOps && (ok_count == 0 || unavailable_count == 0);
       ++i) {
    auto got = prober->Lookup(key_of(i));
    if (got.ok()) {
      EXPECT_EQ(std::string(got->begin(), got->end()), ValueFor(key_of(i)));
      ++ok_count;
    } else {
      EXPECT_TRUE(got.status().IsUnavailable())
          << got.status().ToString();
      ++unavailable_count;
    }
  }
  EXPECT_GT(ok_count, 0u) << "surviving hosts stopped serving";
  EXPECT_GT(unavailable_count, 0u)
      << "no key of the killed host's buckets was probed";

  // A scan touches every bucket, so it must fail — but cleanly, bounded by
  // its deadline, not hang.
  auto scan = prober->Scan(0, {});
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsUnavailable()) << scan.status().ToString();

  // The client object survives the failures and keeps serving live keys.
  bool served_after = false;
  for (uint64_t i = 0; i < 10 && !served_after; ++i) {
    served_after = prober->Lookup(key_of(i)).ok();
  }
  EXPECT_TRUE(served_after);

  // Every exhausted op reported its unservable key to the coordinator
  // (kDeadSite); the coordinator's metrics dump on host 0 must show the
  // reports. Poll: the dump is periodic and the report frame travels on a
  // different connection than the probes.
  if (essdds::obs::kMetricsEnabled) {
    int64_t reports = -1;
    for (int i = 0; i < 100; ++i) {
      reports = CoordinatorCounter("coord.dead_site_reports");
      if (reports > 0) break;
      ::usleep(100'000);
    }
    EXPECT_GT(reports, 0)
        << "coordinator metrics JSON never showed a dead-site report";
  }
}

/// A power-of-two cluster: with round-robin placement (bucket % hosts),
/// whenever the host count divides 2^level, a splitting bucket b and its
/// child b + 2^level land on the SAME host (already at 2 hosts: bucket 1
/// splits to bucket 3, both on host 1, a non-coordinator). The parent's
/// kTransfer to the child is then a purely local hop — it never crosses
/// the network — so local delivery must materialize the child exactly as a
/// network frame would, or every moved record is silently dropped while the
/// coordinator still sees kSplitDone. The 3-host cluster above never
/// co-locates parent and child, so only this fixture covers that path.
class SocketE2ePow2Test : public SocketE2eTest {
 protected:
  size_t host_count() const override { return 2; }
};

TEST_F(SocketE2ePow2Test, CoLocatedSplitChildReceivesMovedRecords) {
  SpawnCluster();
  // Tighter budget than the 3-host tests: a dropped local hop is permanent
  // (no retry can recover it), so exhaust the exponential backoff in ~30s
  // instead of minutes when this regresses.
  auto client = NewClient(/*timeout_us=*/1'000'000, /*retries=*/5);

  sdds::LhSystem baseline(ServerOptions());
  InstallFilters(baseline);
  sdds::LhClient* ref = baseline.NewClient();

  // Capacity 8, 300 keys: splits run well past bucket 3, so several
  // same-host parent->child record moves happen on both hosts.
  const uint64_t kOps = 300;
  auto key_of = [](uint64_t i) { return i * 97 + 3; };
  for (uint64_t i = 0; i < kOps; ++i) {
    const std::string v = ValueFor(key_of(i));
    ASSERT_TRUE(
        client->SubmitInsert(key_of(i), Bytes(v.begin(), v.end())).ok());
    ref->Insert(key_of(i), Bytes(v.begin(), v.end()));
  }
  ASSERT_TRUE(client->AwaitAll().ok());

  // Every inserted record must still be readable — records moved on a
  // local-only split hop are exactly the ones a drop would lose.
  for (uint64_t i = 0; i < kOps; ++i) {
    auto got = client->Lookup(key_of(i));
    ASSERT_TRUE(got.ok()) << "key " << key_of(i) << " lost: "
                          << got.status().ToString();
    EXPECT_EQ(std::string(got->begin(), got->end()), ValueFor(key_of(i)));
  }

  // Match-all scan agrees with the simulator baseline record-for-record.
  auto all = client->Scan(0, {});
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  auto ref_all = ref->Scan(0, {});
  auto sorted_hits = [](std::vector<sdds::WireRecord> hits) {
    std::sort(hits.begin(), hits.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return hits;
  };
  const auto got_all = sorted_hits(std::move(all->hits));
  const auto want_all = sorted_hits(std::move(ref_all.hits));
  ASSERT_EQ(got_all.size(), want_all.size());
  for (size_t i = 0; i < got_all.size(); ++i) {
    EXPECT_EQ(got_all[i].key, want_all[i].key);
    EXPECT_EQ(got_all[i].value, want_all[i].value);
  }
  // The workload really split deep enough to co-locate parent and child.
  EXPECT_GT(client->image().BucketCount(), 3u);
}

}  // namespace
}  // namespace essdds::net
