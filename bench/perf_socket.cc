// Socket-transport benchmark: a pipelined SocketClient driving a 3-process
// cluster over unix-domain sockets at pipeline depths 1, 8 and 64. Depth 1
// is one-op-at-a-time round trips (LhClient's discipline on real wires);
// deeper windows keep multiple requests riding the connections so server
// turnaround overlaps client think time. Reports ops/s plus p50/p95/p99
// per-op latency (submit to completion, so queueing inside a deep window
// counts against it — throughput is the depth win, not tail latency).
//
// Emits one JSON object (bench_outputs/BENCH_socket.json) so CI can assert
// the pipelining claim: depth-64 ops/s strictly above depth-1.
//
// Scale with ESSDDS_SOCKET_OPS=<n> (default 4,000 measured inserts per
// depth, after a 512-insert warmup that drives the first splits).

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "net/admin.h"
#include "net/bucket_host.h"
#include "net/socket_client.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace essdds::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kHosts = 3;

size_t MeasuredOps() {
  if (const char* env = std::getenv("ESSDDS_SOCKET_OPS")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 4000;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One forked cluster of kHosts server processes over UDS, torn down with
/// SIGKILL (the bench measures the steady state, not shutdown).
class Cluster {
 public:
  explicit Cluster(const std::string& tag) {
    dir_ = (std::filesystem::path("/tmp") /
            ("essdds-bench-" + std::to_string(::getpid()) + "-" + tag))
               .string();
    std::filesystem::create_directories(dir_);
    std::string spec;
    for (size_t h = 0; h < kHosts; ++h) {
      if (h) spec += ",";
      spec += "uds:" + dir_ + "/h" + std::to_string(h) + ".sock";
    }
    auto map = net::ClusterMap::Parse(spec);
    ESSDDS_CHECK(map.ok()) << map.status();
    cluster_ = *map;
    for (size_t h = 0; h < kHosts; ++h) Spawn(h);
  }

  ~Cluster() {
    for (pid_t pid : pids_) ::kill(pid, SIGKILL);
    for (pid_t pid : pids_) ::waitpid(pid, nullptr, 0);
    std::filesystem::remove_all(dir_);
  }

  const net::ClusterMap& map() const { return cluster_; }

  std::unique_ptr<net::SocketClient> NewClient() const {
    net::SocketClient::Options opts;
    opts.cluster = cluster_;
    opts.lh = Options();
    opts.lh.request_timeout_us = 2'000'000;
    opts.lh.max_request_retries = 5;
    auto client = std::make_unique<net::SocketClient>(opts);
    Status s = Status::OK();
    for (int attempt = 0; attempt < 200; ++attempt) {
      s = client->Connect();
      if (s.ok()) return client;
      ::usleep(20'000);
    }
    ESSDDS_CHECK(false) << "cluster never came up: " << s.ToString();
    return nullptr;
  }

 private:
  static sdds::LhOptions Options() {
    sdds::LhOptions lh;
    lh.bucket_capacity = 64;
    return lh;
  }

  void Spawn(size_t h) {
    const pid_t pid = ::fork();
    ESSDDS_CHECK(pid >= 0);
    if (pid == 0) {
      net::BucketHost::Config config;
      config.cluster = cluster_;
      config.host_index = h;
      config.options = Options();
      net::BucketHost host(config);
      if (!host.Start().ok()) ::_exit(3);
      for (;;) host.RunOnce(50);
    }
    pids_.push_back(pid);
  }

  std::string dir_;
  net::ClusterMap cluster_;
  std::vector<pid_t> pids_;
};

struct DepthNumbers {
  size_t depth = 0;
  size_t ops = 0;
  double ops_per_sec = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0, max_us = 0;
  uint64_t retries = 0;
};

double PercentileUs(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0;
  const size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

/// Inserts `ops` fresh keys keeping a window of `depth` in flight; latency
/// is submit-to-Await per op, throughput is the whole window-driven phase.
DepthNumbers RunDepth(size_t depth, size_t ops) {
  // Appended, not `"d" + std::to_string(depth)`: GCC 12 at -O2 reports a
  // false -Wrestrict on the inlined concatenation.
  std::string name = "d";
  name += std::to_string(depth);
  Cluster cluster(name);
  auto client = cluster.NewClient();

  const Bytes value = ToBytes("socket bench payload: forty-two bytes long!");
  // Warmup drives the first splits (and the IAM churn repairing the client
  // image) outside the measured phase.
  for (uint64_t i = 0; i < 512; ++i) {
    auto r = client->Insert(1'000'000 + i * 13, value);
    ESSDDS_CHECK(r.ok()) << r.status();
  }

  std::vector<double> lat_us;
  lat_us.reserve(ops);
  std::deque<std::pair<uint64_t, Clock::time_point>> window;
  auto complete_front = [&] {
    auto [token, start] = window.front();
    window.pop_front();
    auto r = client->Await(token);
    ESSDDS_CHECK(r.ok()) << r.status();
    lat_us.push_back(1e6 * SecondsSince(start));
  };

  const auto t0 = Clock::now();
  for (uint64_t i = 0; i < ops; ++i) {
    const uint64_t key = 9'000'000 + i * 7;
    auto token = client->SubmitInsert(key, value);
    ESSDDS_CHECK(token.ok()) << token.status();
    window.emplace_back(*token, Clock::now());
    if (window.size() >= depth) complete_front();
  }
  while (!window.empty()) complete_front();
  const double elapsed = SecondsSince(t0);

  DepthNumbers out;
  out.depth = depth;
  out.ops = ops;
  out.ops_per_sec = static_cast<double>(ops) / elapsed;
  std::sort(lat_us.begin(), lat_us.end());
  out.p50_us = PercentileUs(lat_us, 0.50);
  out.p95_us = PercentileUs(lat_us, 0.95);
  out.p99_us = PercentileUs(lat_us, 0.99);
  out.max_us = lat_us.back();
  out.retries = client->retry_count();
  return out;
}

struct ScrapeNumbers {
  double unwatched_ops_per_sec = 0;
  double watched_ops_per_sec = 0;
  double overhead_pct = 0;
  double blocked_pct = 0;
  bool overhead_ok = false;
  uint64_t scrapes = 0;
  double mean_scrape_us = 0;
};

/// The observability tax: the depth-64 insert workload with and without a
/// concurrent admin scrape loop. The watched chunks pull the full cluster
/// metrics once a second — the cadence of `essdds_admin watch`. The claim
/// (watching a live cluster costs under 5% of its throughput) is asserted
/// on the fraction of watched wall time spent blocked inside scrape round
/// trips — the direct cost, immune to the +/-10% run-to-run throughput
/// noise of a loaded multi-process cluster; the raw throughput delta is
/// reported alongside as context. Unwatched and watched chunks interleave on one
/// cluster — alternating which side goes first each round — so that table
/// growth (each chunk inserts fresh keys, so the LH* file keeps splitting)
/// and cache warmth bias neither side.
ScrapeNumbers RunScrape(size_t ops) {
  // A chunk must outlast the 1s scrape interval for the watched side to
  // actually scrape; at UDS speeds the default 4,000 ops finish in tens of
  // milliseconds, so the scrape leg has its own floor.
  const size_t chunk = std::max<size_t>(ops, 120'000);
  constexpr int kChunksPerSide = 2;

  Cluster cluster("scrape");
  auto client = cluster.NewClient();
  net::AdminClient::Options admin_opts;
  admin_opts.cluster = cluster.map();
  net::AdminClient admin(admin_opts);
  ESSDDS_CHECK(admin.Connect().ok());

  const Bytes value = ToBytes("socket bench payload: forty-two bytes long!");
  for (uint64_t i = 0; i < 512; ++i) {
    auto r = client->Insert(2'000'000 + i * 13, value);
    ESSDDS_CHECK(r.ok()) << r.status();
  }

  ScrapeNumbers out;
  double scrape_secs = 0;
  auto run_chunk = [&](uint64_t key_base, bool watched) -> double {
    std::deque<uint64_t> window;
    auto last_scrape = Clock::now();
    const auto t0 = Clock::now();
    for (uint64_t i = 0; i < chunk; ++i) {
      auto token = client->SubmitInsert(key_base + i * 7, value);
      ESSDDS_CHECK(token.ok()) << token.status();
      window.push_back(*token);
      if (window.size() >= 64) {
        auto r = client->Await(window.front());
        ESSDDS_CHECK(r.ok()) << r.status();
        window.pop_front();
      }
      if (watched && SecondsSince(last_scrape) >= 1.0) {
        const auto s0 = Clock::now();
        auto metrics = admin.Metrics();
        ESSDDS_CHECK(metrics.ok()) << metrics.status();
        ESSDDS_CHECK(metrics->hosts.size() == kHosts);
        scrape_secs += SecondsSince(s0);
        ++out.scrapes;
        last_scrape = Clock::now();
      }
    }
    while (!window.empty()) {
      auto r = client->Await(window.front());
      ESSDDS_CHECK(r.ok()) << r.status();
      window.pop_front();
    }
    return SecondsSince(t0);
  };

  double unwatched_secs = 0, watched_secs = 0;
  uint64_t key_base = 30'000'000;
  for (int round = 0; round < kChunksPerSide; ++round) {
    const bool watched_first = (round % 2) != 0;
    for (const bool watched : {watched_first, !watched_first}) {
      (watched ? watched_secs : unwatched_secs) += run_chunk(key_base, watched);
      key_base += 10'000'000;
    }
  }
  const double side_ops = static_cast<double>(chunk) * kChunksPerSide;
  out.unwatched_ops_per_sec = side_ops / unwatched_secs;
  out.watched_ops_per_sec = side_ops / watched_secs;
  out.overhead_pct =
      100.0 * (1.0 - out.watched_ops_per_sec / out.unwatched_ops_per_sec);
  out.blocked_pct = 100.0 * scrape_secs / watched_secs;
  out.overhead_ok = out.overhead_pct < 5.0;
  out.mean_scrape_us =
      out.scrapes > 0 ? 1e6 * scrape_secs / static_cast<double>(out.scrapes)
                      : 0.0;
  return out;
}

int Main() {
  const size_t ops = MeasuredOps();
  const std::vector<size_t> depths = {1, 8, 64};

  std::vector<DepthNumbers> results;
  for (const size_t d : depths) results.push_back(RunDepth(d, ops));

  JsonWriter w;
  w.BeginObject();
  w.KV("hosts", static_cast<uint64_t>(kHosts));
  w.KV("transport", "uds");
  w.KV("ops_per_depth", static_cast<uint64_t>(ops));
  w.Key("depths").BeginArray();
  for (const DepthNumbers& r : results) {
    w.BeginObject()
        .KV("depth", static_cast<uint64_t>(r.depth))
        .KV("ops", static_cast<uint64_t>(r.ops))
        .KV("ops_per_sec", r.ops_per_sec, 0)
        .KV("latency_p50_us", r.p50_us, 1)
        .KV("latency_p95_us", r.p95_us, 1)
        .KV("latency_p99_us", r.p99_us, 1)
        .KV("latency_max_us", r.max_us, 1)
        .KV("retries", r.retries)
        .EndObject();
  }
  w.EndArray();
  const double speedup =
      results.front().ops_per_sec > 0
          ? results.back().ops_per_sec / results.front().ops_per_sec
          : 0.0;
  w.KV("depth64_speedup_vs_depth1", speedup, 2);
  const bool pipelining_wins =
      results.back().ops_per_sec > results.front().ops_per_sec;
  w.KV("pipelining_wins", pipelining_wins);
  const ScrapeNumbers scrape = RunScrape(ops);
  w.Key("scrape").BeginObject();
  w.KV("watch_interval_ms", static_cast<uint64_t>(1000));
  w.KV("unwatched_ops_per_sec", scrape.unwatched_ops_per_sec, 0);
  w.KV("watched_ops_per_sec", scrape.watched_ops_per_sec, 0);
  w.KV("scrapes", scrape.scrapes);
  w.KV("mean_scrape_us", scrape.mean_scrape_us, 1);
  w.KV("scrape_blocked_pct", scrape.blocked_pct, 2);
  w.KV("watch_overhead_pct", scrape.overhead_pct, 2);
  w.KV("watch_overhead_ok", scrape.overhead_ok);
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return pipelining_wins ? 0 : 1;
}

}  // namespace
}  // namespace essdds::bench

int main() { return essdds::bench::Main(); }
