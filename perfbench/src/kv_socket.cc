// `kv-socket` workload: raw LH* key operations over the real transport. A
// 3-host BucketHost cluster is forked over unix-domain sockets (as
// bench/perf_socket.cc does) and preloaded with kKeys keys; one SocketClient
// then keeps a window of kWindow ops in flight, 80% SubmitLookup and 20%
// overwriting SubmitInsert on uniform random preloaded keys. Exercises the
// frame codec, the poll loop, SocketNetwork, BucketHost dispatch and the
// server key path; bypasses crypto, codec, core, persist and parity.

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/admin.h"
#include "net/bucket_host.h"
#include "net/frame_codec.h"
#include "net/socket_client.h"
#include "obs/metrics.h"
#include "sdds/message.h"
#include "util/logging.h"
#include "util/random.h"
#include "workloads.h"

namespace essdds::perfbench {
namespace {

constexpr size_t kHosts = 3;
constexpr size_t kKeys = 20'000;
constexpr size_t kWindow = 16;
constexpr size_t kSetups = 15;
/// Pre-generated op ring; the measured loop wraps around it.
constexpr size_t kOpRing = 1 << 20;
/// Traced runs alternate untraced and traced chunks of this many ops.
constexpr size_t kChunk = 20'000;
/// Ops per window of the end-to-end medians (about a third of a second).
constexpr size_t kWindowOps = 50'000;
/// Frame codec replay: messages encoded and decoded per pass.
constexpr size_t kCodecMessages = 4'000;
constexpr int kCodecPasses = 25;
/// Lookups of the instrument check, one in flight at a time.
constexpr size_t kCheckOps = 5'000;
/// The instrument check flags a gap between the client histogram's exact
/// mean and the benchmark's own mean larger than this share of the latter
/// (NOTES.md: above the gap's run-to-run spread).
constexpr double kInstrumentTolerance = 0.10;

/// CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling process to one CPU; a failure leaves it unpinned.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

sdds::LhOptions ClusterOptions() {
  sdds::LhOptions lh;
  lh.bucket_capacity = 64;
  return lh;
}

/// A forked cluster of kHosts server processes. Hosts die with the
/// benchmark (PR_SET_PDEATHSIG) and are SIGKILLed and reaped on teardown.
/// Host h is pinned to cpus[(h + 1) % cpus.size()] when `cpus` is not empty.
class Cluster {
 public:
  Cluster(const std::string& dir, const std::vector<int>& cpus)
      : dir_(dir), cpus_(cpus) {
    std::filesystem::create_directories(dir_);
    std::string spec;
    for (size_t h = 0; h < kHosts; ++h) {
      if (h) spec += ",";
      spec += "uds:" + dir_ + "/h" + std::to_string(h) + ".sock";
    }
    auto map = net::ClusterMap::Parse(spec);
    ESSDDS_CHECK(map.ok()) << map.status();
    map_ = *map;
    for (size_t h = 0; h < kHosts; ++h) Spawn(h);
  }

  ~Cluster() {
    for (pid_t pid : pids_) ::kill(pid, SIGKILL);
    for (pid_t pid : pids_) ::waitpid(pid, nullptr, 0);
    std::filesystem::remove_all(dir_);
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const net::ClusterMap& map() const { return map_; }

  double HostsPeakRssMib() const {
    double total = 0;
    for (pid_t pid : pids_) total += PeakRssMib(pid);
    return total;
  }

  std::unique_ptr<net::SocketClient> NewClient() const {
    net::SocketClient::Options opts;
    opts.cluster = map_;
    opts.lh = ClusterOptions();
    opts.lh.request_timeout_us = 2'000'000;
    opts.lh.max_request_retries = 5;
    auto client = std::make_unique<net::SocketClient>(opts);
    Status s = Status::OK();
    for (int attempt = 0; attempt < 500; ++attempt) {
      s = client->Connect();
      if (s.ok()) return client;
      ::usleep(2'000);
    }
    ESSDDS_CHECK(false) << "cluster never came up: " << s.ToString();
    return nullptr;
  }

 private:
  void Spawn(size_t h) {
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    ESSDDS_CHECK(pid >= 0);
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(0);
      if (!cpus_.empty()) PinTo(cpus_[(h + 1) % cpus_.size()]);
      net::BucketHost::Config config;
      config.cluster = map_;
      config.host_index = h;
      config.options = ClusterOptions();
      net::BucketHost host(config);
      if (!host.Start().ok()) ::_exit(3);
      for (;;) host.RunOnce(50);
    }
    pids_.push_back(pid);
  }

  std::string dir_;
  std::vector<int> cpus_;
  net::ClusterMap map_;
  std::vector<pid_t> pids_;
};

/// Value of `key` at `version`: 16 bytes, so a lookup proves which write it
/// saw.
Bytes ValueOf(uint64_t key, uint64_t version) {
  Bytes v(16);
  std::memcpy(v.data(), &key, 8);
  std::memcpy(v.data() + 8, &version, 8);
  return v;
}

struct Op {
  uint32_t key_index;
  bool lookup;
};

/// One op in the window, with what its answer must be.
struct InFlight {
  uint64_t token;
  Clock::time_point start;
  bool lookup;
  uint64_t expect_version;  // lookups: the last version written before it
  size_t key_index;
};

/// Cuts completed ops into windows of kWindowOps and keeps only each
/// window's rate, p50, p99 and lookup p50, so the benchmark's own memory
/// stays flat however many ops a run makes.
class Windows {
 public:
  explicit Windows(Clock::time_point start) : start_(start) {
    latency_us_.reserve(kWindowOps);
  }

  void Add(Clock::time_point done, double us, bool lookup) {
    latency_us_.push_back(us);
    if (lookup) lookup_us_.push_back(us);
    if (latency_us_.size() == kWindowOps) Close(done);
  }

  /// Keeps a pause of the measured phase out of the open window's rate.
  void Pause(Clock::duration d) { start_ += d; }

  /// Closes a trailing partial window only when no window closed yet.
  void Finish(Clock::time_point now) {
    if (rate.empty() && !latency_us_.empty()) Close(now);
  }

  std::vector<double> rate, p50, p99, lookup_p50;

 private:
  void Close(Clock::time_point done) {
    rate.push_back(latency_us_.size() /
                   std::chrono::duration<double>(done - start_).count());
    p50.push_back(Percentile(latency_us_, 0.50));
    p99.push_back(Percentile(latency_us_, 0.99));
    lookup_p50.push_back(Median(lookup_us_));
    latency_us_.clear();
    lookup_us_.clear();
    start_ = done;
  }

  Clock::time_point start_;
  std::vector<double> latency_us_, lookup_us_;
};

/// Submits and completes ops with a fixed window, checking every lookup
/// against the shadow map of last-written versions.
class Driver {
 public:
  Driver(net::SocketClient* client, const std::vector<uint64_t>* keys,
         std::vector<uint64_t>* shadow)
      : client_(client), keys_(keys), shadow_(shadow) {}

  void Submit(const Op& op, Tracer& tr) {
    const uint64_t key = (*keys_)[op.key_index];
    Result<uint64_t> token = Status::Internal("not submitted");
    uint64_t expect = 0;
    const auto start = Clock::now();
    if (op.lookup) {
      expect = (*shadow_)[op.key_index];
      Tracer::Scope span(&tr, "net.client_submit");
      token = client_->SubmitLookup(key);
    } else {
      const uint64_t version = ++next_version_;
      (*shadow_)[op.key_index] = version;
      Bytes value = ValueOf(key, version);
      Tracer::Scope span(&tr, "net.client_submit");
      token = client_->SubmitInsert(key, std::move(value));
    }
    ++attempted;
    if (!token.ok()) {
      ++failed;
      return;
    }
    window_.push_back(InFlight{*token, start, op.lookup, expect, op.key_index});
    if (window_.size() >= kWindow) CompleteFront(tr);
  }

  void Drain(Tracer& tr) {
    while (!window_.empty()) CompleteFront(tr);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  Windows windows{Clock::now()};

 private:
  void CompleteFront(Tracer& tr) {
    const InFlight op = window_.front();
    window_.pop_front();
    Result<net::SocketClient::OpResult> r = Status::Internal("not awaited");
    {
      Tracer::Scope span(&tr, "net.client_await");
      r = client_->Await(op.token);
    }
    const auto now = Clock::now();
    windows.Add(now,
                std::chrono::duration<double, std::micro>(now - op.start).count(),
                op.lookup);
    if (!r.ok()) {
      ++failed;
      return;
    }
    if (op.lookup) {
      const uint64_t key = (*keys_)[op.key_index];
      if (!r->found || r->value != ValueOf(key, op.expect_version)) ++failed;
    }
  }

  net::SocketClient* client_;
  const std::vector<uint64_t>* keys_;
  std::vector<uint64_t>* shadow_;
  std::deque<InFlight> window_;
  uint64_t next_version_ = 0;
};

/// Preloads every key at version 0 and reads each back once, so splits and
/// the client image have settled before timing.
void Preload(net::SocketClient* client, const std::vector<uint64_t>& keys,
             std::vector<uint64_t>* shadow) {
  std::fill(shadow->begin(), shadow->end(), 0);
  Tracer off(false);
  Driver driver(client, &keys, shadow);
  for (const uint64_t key : keys) {
    auto token = client->SubmitInsert(key, ValueOf(key, 0));
    ESSDDS_CHECK(token.ok()) << token.status();
    if (client->inflight() >= kWindow) {
      ESSDDS_CHECK(client->AwaitAll().ok());
    }
  }
  ESSDDS_CHECK(client->AwaitAll().ok());
  for (uint32_t i = 0; i < keys.size(); ++i) driver.Submit(Op{i, true}, off);
  driver.Drain(off);
  ESSDDS_CHECK(driver.failed == 0) << driver.failed << " preload checks failed";
}

/// Encodes and decodes the run's message shapes (request and reply of each
/// op) outside the network. Returns {encode ns, decode ns} per message.
std::pair<double, double> ReplayFrameCodec(const std::vector<uint64_t>& keys,
                                           const std::vector<Op>& ops,
                                           bool* ok) {
  std::vector<sdds::Message> msgs;
  for (size_t i = 0; msgs.size() < kCodecMessages; ++i) {
    const Op& op = ops[i];
    sdds::Message req;
    req.type = op.lookup ? sdds::MsgType::kLookup : sdds::MsgType::kInsert;
    req.from = net::kClientSiteBase;
    req.to = net::SiteOfBucket(i % 64);
    req.reply_to = req.from;
    req.request_id = i + 1;
    req.trace_id = i + 1;
    req.key = keys[op.key_index];
    if (!op.lookup) req.value = ValueOf(req.key, i);
    sdds::Message reply = req;
    std::swap(reply.from, reply.to);
    reply.type =
        op.lookup ? sdds::MsgType::kLookupReply : sdds::MsgType::kInsertAck;
    reply.found = true;
    reply.value = ValueOf(req.key, i);
    msgs.push_back(std::move(req));
    msgs.push_back(std::move(reply));
  }
  std::vector<double> enc_ns, dec_ns;
  for (int pass = 0; pass < kCodecPasses; ++pass) {
    Bytes stream;
    auto t0 = Clock::now();
    for (const sdds::Message& m : msgs) {
      const Bytes frame =
          net::EncodeFrame(net::FrameKind::kMessage, m.Encode());
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    enc_ns.push_back(1e3 * MicrosSince(t0) / msgs.size());
    t0 = Clock::now();
    net::FrameDecoder decoder;
    decoder.Append(stream);
    net::Frame frame;
    size_t decoded = 0;
    for (;;) {
      auto next = decoder.Next(&frame);
      if (!next.ok() || !*next) break;
      auto m = sdds::Message::Decode(frame.payload);
      if (!m.ok() || m->key != msgs[decoded].key) *ok = false;
      ++decoded;
    }
    dec_ns.push_back(1e3 * MicrosSince(t0) / msgs.size());
    if (decoded != msgs.size()) *ok = false;
  }
  return {Median(enc_ns), Median(dec_ns)};
}

}  // namespace

Report RunKvSocket(const Args& args) {
  Report report;

  // Inputs, generated before anything is timed.
  Rng rng(args.seed);
  std::vector<uint64_t> keys;
  std::unordered_set<uint64_t> seen;
  while (keys.size() < kKeys) {
    const uint64_t k = rng.Next() >> 8;
    if (seen.insert(k).second) keys.push_back(k);
  }
  std::vector<Op> ops(kOpRing);
  for (Op& op : ops) {
    op.key_index = static_cast<uint32_t>(rng.Uniform(kKeys));
    op.lookup = rng.Uniform(5) != 0;  // 80% lookups
  }
  std::vector<uint64_t> shadow(kKeys);

  // One CPU per process: the client on the first allowed CPU, the hosts on
  // the next ones. Left to the scheduler, runs settled into different
  // placements and throughput split into modes 30% apart (NOTES.md).
  const std::vector<int> cpus = AllowedCpus();
  if (!cpus.empty()) PinTo(cpus[0]);

  // Set-up: forks a cluster, connects a client and preloads every key. The
  // first one is measured; the other kSetups - 1 are spread evenly over the
  // measured phase (the last at its end), each on a throwaway cluster while
  // the measured one idles, off the measured clock. Set-ups back to back
  // would sample one moment of the machine.
  std::vector<double> setup_s;
  auto setup = [&](std::vector<uint64_t>* preloaded) {
    const auto s0 = Clock::now();
    auto c = std::make_unique<Cluster>(
        args.scratch_dir + "/c" + std::to_string(setup_s.size()), cpus);
    auto cl = c->NewClient();
    Preload(cl.get(), keys, preloaded);
    setup_s.push_back(SecondsSince(s0));
    return std::make_pair(std::move(c), std::move(cl));
  };
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<net::SocketClient> client;
  std::tie(cluster, client) = setup(&shadow);

  std::unique_ptr<net::AdminClient> admin;
  sdds::NetworkStats stats_before;
  if (args.trace) {
    net::AdminClient::Options admin_opts;
    admin_opts.cluster = cluster->map();
    admin = std::make_unique<net::AdminClient>(admin_opts);
    ESSDDS_CHECK(admin->Connect().ok());
    auto m = admin->Metrics();
    ESSDDS_CHECK(m.ok()) << m.status();
    stats_before = m->MergedStats();
  }
  const uint64_t retries0 = client->retry_count();
  const uint64_t stale0 = client->stale_reply_count();
  const uint64_t iams0 = client->iam_count();
  client->metrics().ResetAll();

  Tracer tracer(args.trace);
  Tracer untraced(false);
  Driver driver(client.get(), &keys, &shadow);
  double untraced_s = 0, traced_s = 0;
  uint64_t untraced_ops = 0, traced_ops = 0;
  std::vector<double> scrape_ms;
  auto last_scrape = Clock::now();
  auto t0 = Clock::now();
  driver.windows = Windows(t0);
  size_t i = 0;
  for (;;) {
    while (setup_s.size() < kSetups &&
           SecondsSince(t0) >= args.seconds * static_cast<double>(setup_s.size()) /
                                   (kSetups - 1)) {
      driver.Drain(untraced);
      const auto pause = Clock::now();
      std::vector<uint64_t> throwaway_shadow(kKeys);
      setup(&throwaway_shadow);
      const auto paused = Clock::now() - pause;
      t0 += paused;
      driver.windows.Pause(paused);
    }
    if (setup_s.size() == kSetups && SecondsSince(t0) >= args.seconds) break;
    const bool traced = args.trace && (i / kChunk) % 2 == 1;
    Tracer& tr = traced ? tracer : untraced;
    const auto c0 = Clock::now();
    for (size_t end = i + kChunk; i < end; ++i) {
      driver.Submit(ops[i % kOpRing], tr);
      if (traced && SecondsSince(last_scrape) >= 1.0) {
        const auto s0 = Clock::now();
        auto m = admin->Metrics();
        scrape_ms.push_back(MicrosSince(s0) / 1e3);
        if (!m.ok() || m->hosts.size() != kHosts) report.correct = false;
        last_scrape = Clock::now();
      }
    }
    (traced ? traced_s : untraced_s) += SecondsSince(c0);
    (traced ? traced_ops : untraced_ops) += kChunk;
  }
  driver.Drain(untraced);
  driver.windows.Finish(Clock::now());
  const double elapsed = SecondsSince(t0);
  report.attempted = driver.attempted;
  report.failed = driver.failed;

  const Windows& w = driver.windows;
  const double ops_per_s = Median(w.rate);
  const double p50_us = Median(w.p50);
  const double p99_us = Median(w.p99);
  const double hosts_rss = cluster->HostsPeakRssMib();

  // The client's log-bucket histogram places the measured phase's lookup
  // p50 in [lo, hi]. It stops at the reply, the benchmark at the Await of
  // the window's front op, so the two differ by design (NOTES.md).
  const double bench_lookup_p50 = Median(w.lookup_p50);
  const double hist_hi = static_cast<double>(
      client->metrics().histogram("client.lookup_us").Quantile(0.5));
  const double hist_lo = std::floor((hist_hi + 1) / 2);

  if (!args.trace) {
    report.end_to_end["setup_s"] = {Median(setup_s), "s"};
    report.end_to_end["peak_rss_mb"] = {SelfPeakRssMib() + hosts_rss, "MiB"};
    report.end_to_end["ops_per_s"] = {ops_per_s, "1/s"};
    report.end_to_end["latency_p50_us"] = {p50_us, "us"};
    report.end_to_end["latency_tail_us"] = {p99_us, "us"};
  } else {
    auto m = admin->Metrics();
    ESSDDS_CHECK(m.ok()) << m.status();
    const sdds::NetworkStats after = m->MergedStats();
    const double n = static_cast<double>(driver.attempted);
    bool codec_ok = true;
    const auto [enc_ns, dec_ns] = ReplayFrameCodec(keys, ops, &codec_ok);
    if (!codec_ok) report.correct = false;
    auto& L = report.layers;
    L["net.frame_encode_ns"] = {enc_ns, "ns"};
    L["net.frame_decode_ns"] = {dec_ns, "ns"};
    L["net.client_submit_us"] = {Mean(tracer.Durations("net.client_submit")),
                                 "us"};
    L["net.client_await_us"] = {Mean(tracer.Durations("net.client_await")),
                                "us"};
    L["net.msgs_per_op"] = {
        (after.total_messages - stats_before.total_messages) / n, "count"};
    L["net.bytes_per_op"] = {
        (after.total_bytes - stats_before.total_bytes) / n, "bytes"};
    L["net.forwarded_per_op"] = {
        (after.forwarded_messages - stats_before.forwarded_messages) / n,
        "count"};
    L["net.retries"] = {static_cast<double>(client->retry_count() - retries0),
                        "count"};
    L["net.stale_replies"] = {
        static_cast<double>(client->stale_reply_count() - stale0), "count"};
    L["net.iams"] = {static_cast<double>(client->iam_count() - iams0), "count"};
    L["obs.scrape_ms"] = {Median(scrape_ms), "ms"};
    L["trace_overhead_pct"] = {
        TraceOverheadPct(untraced_s > 0 ? untraced_ops / untraced_s : 0,
                         traced_s > 0 ? traced_ops / traced_s : 0),
        "%"};
    tracer.WriteTsv(args.spans_path);
  }

  // Production instrument against the benchmark's clock, like with like:
  // lookups one at a time, so Await returns as the reply arrives, where the
  // client.lookup_us histogram stops its clock.
  client->metrics().ResetAll();
  std::vector<double> check_us;
  for (size_t j = 0; j < kCheckOps; ++j) {
    const Op& op = ops[(i + j) % kOpRing];
    const uint64_t key = keys[op.key_index];
    Result<net::SocketClient::OpResult> r = Status::Internal("not submitted");
    const auto s0 = Clock::now();
    const Result<uint64_t> token = client->SubmitLookup(key);
    if (token.ok()) r = client->Await(*token);
    check_us.push_back(MicrosSince(s0));
    ++report.attempted;
    if (!r.ok() || !r->found || r->value != ValueOf(key, shadow[op.key_index])) {
      ++report.failed;
    }
  }
  const obs::Histogram& check_hist =
      client->metrics().histogram("client.lookup_us");
  const double check_hist_mean =
      check_hist.count() ? static_cast<double>(check_hist.sum()) /
                               static_cast<double>(check_hist.count())
                         : 0.0;
  const double check_bench_mean = Mean(check_us);
  const double check_gap =
      std::abs(check_bench_mean - check_hist_mean) / check_bench_mean;

  auto& D = report.detail;
  D["kv_ops_per_s"] = {ops_per_s, "1/s"};
  D["kv_p50_us"] = {p50_us, "us"};
  D["kv_p99_us"] = {p99_us, "us"};
  D["kv_ops_per_s_whole_run"] = {driver.attempted / elapsed, "1/s"};
  D["windows"] = {static_cast<double>(w.rate.size()), "count"};
  D["bench_lookup_p50_us"] = {bench_lookup_p50, "us"};
  D["client_lookup_us_hist_p50_lo"] = {hist_lo, "us"};
  D["client_lookup_us_hist_p50_hi"] = {hist_hi, "us"};
  D["hosts_peak_rss_mb"] = {hosts_rss, "MiB"};
  D["check_bench_lookup_mean_us"] = {check_bench_mean, "us"};
  D["check_client_lookup_us_hist_mean"] = {check_hist_mean, "us"};
  D["check_gap"] = {check_gap, "ratio"};
  if (!obs::kMetricsEnabled) {
    report.facts["lookup_instrument"] = "not checked: metrics compiled out";
  } else if (check_hist.count() == kCheckOps &&
             check_gap <= kInstrumentTolerance) {
    report.facts["lookup_instrument"] = "agrees";
  } else {
    report.facts["lookup_instrument"] =
        "GAP: client.lookup_us mean departs from the benchmark's at depth 1";
  }
  report.facts["window"] = std::to_string(kWindow);
  report.facts["tail_percentile"] = "p99";
  return report;
}

}  // namespace essdds::perfbench
