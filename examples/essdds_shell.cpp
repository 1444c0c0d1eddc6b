// Interactive shell over an encrypted store: load a synthetic directory,
// then type commands to search, fetch, insert, and delete records and to
// inspect the SDDS state. Reads commands from stdin (or a here-doc), so it
// doubles as a scripting tool:
//
//   ./build/examples/essdds_shell 5000 <<'EOF'
//   search SCHWARZ
//   stats
//   EOF
//
// A second positional argument sets the index scan thread count (0 =
// serial). Flags select and tune the network simulation carrying both LH*
// files:
//
//   --net=event        discrete-event network (latency, reordering, retries)
//   --net-seed=N       event schedule seed (default 1)
//   --latency=MIN:MAX  per-message latency range, microseconds of virtual time
//   --drop=P           drop probability for client key traffic (0..1)
//   --dup=P            duplicate probability for client key traffic (0..1)
//
// High availability (DESIGN.md §16; recovery needs --net=event):
//
//   --parity=K:M       group every K consecutive data buckets of both LH*
//                      files with M Reed-Solomon parity buckets. A bucket
//                      whose site dies (the `kill` command simulates it) is
//                      detected by client retries, probed and declared by
//                      the coordinator, and rebuilt bit-for-bit from the
//                      K+M-1 survivors — up to M simultaneous kills.
//
// Durability (src/persist; no-ops when built with -DESSDDS_PERSIST=OFF):
//
//   --data-dir=DIR     keep encrypted-at-rest bucket logs for both LH* files
//                      under DIR (record_file/ and index_file/ subtrees).
//                      Every acknowledged mutation is logged before its ack;
//                      restarting the shell with the same DIR replays the
//                      logs and skips the synthetic corpus load.
//   --fsync            fsync log appends, header writes, and checkpoint
//                      renames: durability extends from process crashes to
//                      OS crashes and power loss, at per-ack fsync cost
//   --no-persist       ignore --data-dir and run RAM-only
//
// Observability (src/obs; no-ops when built with -DESSDDS_METRICS=OFF):
//
//   --metrics          print the full metrics JSON (traffic stats + metric
//                      registries of both LH* files) to stdout at exit
//   --metrics=FILE     same, written to FILE instead
//   --trace=ID         print the causal hop dump for trace id ID at exit
//                      (the `metrics` and `trace` commands do the same
//                      interactively)
//   --cluster=SPEC     additionally attach to a LIVE socket cluster
//                      (essdds_server processes; comma-separated endpoints,
//                      host 0 first) for the `admin` commands — the shell's
//                      own simulated store stays untouched
//
//   ./build/examples/essdds_shell 5000 8 --net=event --net-seed=7 --drop=0.05
//
// Any client-visible failure prints a replay line with the full network
// configuration; re-running the same script with those flags reproduces the
// run schedule bit-for-bit.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/encrypted_store.h"
#include "net/admin.h"
#include "obs/trace.h"
#include "sdds/event_network.h"
#include "util/json_writer.h"
#include "workload/phonebook.h"

using essdds::ToBytes;

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  search <substring>     encrypted parallel substring search\n"
      "  short <fragment>       §2.3 expansion search (one below minimum)\n"
      "  get <rid>              fetch + decrypt one record\n"
      "  insert <rid> <name>    add or replace a record\n"
      "  delete <rid>           remove a record\n"
      "  kill <bucket>          kill the record-file bucket's site (needs\n"
      "                         --parity and --net=event); the next op that\n"
      "                         touches it drives declare + reconstruction\n"
      "  stats                  file extents, records, traffic counters\n"
      "  metrics                full metrics JSON (both LH* files)\n"
      "  trace <id|last|all>    causal hop dump from the trace rings\n"
      "  admin metrics          scrape a live cluster (needs --cluster=SPEC):\n"
      "                         merged per-host + cluster metrics JSON\n"
      "  admin health           per-host health summaries of the cluster\n"
      "  admin trace <id>       assembled cross-host trace from the cluster\n"
      "  params                 scheme parameters\n"
      "  help                   this text\n"
      "  quit\n");
}

/// One JSON document covering both LH* files: per-file traffic stats plus
/// the full metric registry (counters, gauges, histogram summaries). This is
/// what --metrics[=FILE] and the `metrics` command emit.
std::string MetricsJson(essdds::core::EncryptedStore& store) {
  essdds::JsonWriter w;
  w.BeginObject();
  const std::pair<const char*, essdds::sdds::LhSystem*> files[] = {
      {"record_file", &store.record_file()},
      {"index_file", &store.index_file()},
  };
  for (const auto& [name, sys] : files) {
    w.Key(name).BeginObject();
    w.Key("network").Raw(sys->network().stats().ToJson());
    w.Key("metrics").Raw(sys->network().metrics().ToJson());
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

/// Most recent trace id either file allocated (0 when nothing was traced):
/// the target of `trace last`.
uint64_t LastTraceId(essdds::core::EncryptedStore& store) {
  uint64_t last = 0;
  for (essdds::sdds::LhSystem* sys :
       {&store.record_file(), &store.index_file()}) {
    for (const essdds::obs::TraceEvent& ev : sys->network().trace().Snapshot()) {
      if (ev.trace_id > last) last = ev.trace_id;
    }
  }
  return last;
}

/// Prints the hop dump for `trace_id` (0 = everything) from both files'
/// rings, labeled per file.
void PrintTrace(essdds::core::EncryptedStore& store, uint64_t trace_id) {
  const std::pair<const char*, essdds::sdds::LhSystem*> files[] = {
      {"record_file", &store.record_file()},
      {"index_file", &store.index_file()},
  };
  for (const auto& [name, sys] : files) {
    std::printf("--- %s ---\n%s", name,
                sys->network().TraceDump(trace_id).c_str());
  }
}

struct NetConfig {
  essdds::sdds::NetworkMode mode = essdds::sdds::NetworkMode::kSync;
  essdds::sdds::EventNetworkOptions event;

  /// The flag string that reproduces this configuration (the event schedule
  /// is a pure function of these knobs — no wall-clock time is involved).
  std::string ReplayFlags() const {
    if (mode != essdds::sdds::NetworkMode::kEvent) return "--net=sync";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "--net=event --net-seed=%llu --latency=%u:%u --drop=%g "
                  "--dup=%g",
                  static_cast<unsigned long long>(event.seed),
                  event.min_latency_us, event.max_latency_us, event.drop_prob,
                  event.duplicate_prob);
    return buf;
  }
};

/// The `admin` command family: lazily dials the --cluster endpoints on
/// first use (a shell run that never types `admin` pays no connections)
/// and serves metrics/health/trace scrapes against the live cluster.
class AdminCommands {
 public:
  explicit AdminCommands(std::string cluster_spec)
      : cluster_spec_(std::move(cluster_spec)) {}

  void Run(std::istringstream& in) {
    if (cluster_spec_.empty()) {
      std::printf("admin needs --cluster=SPEC (comma-separated endpoints "
                  "of a live essdds_server cluster)\n");
      return;
    }
    std::string sub;
    in >> sub;
    essdds::net::AdminClient* admin = Client();
    if (admin == nullptr) return;
    if (sub == "metrics") {
      auto metrics = admin->Metrics();
      if (!metrics.ok()) {
        std::printf("scrape failed: %s\n",
                    metrics.status().ToString().c_str());
        return;
      }
      std::printf("%s\n", metrics->ToJson().c_str());
    } else if (sub == "health") {
      auto health = admin->Health();
      if (!health.ok()) {
        std::printf("scrape failed: %s\n", health.status().ToString().c_str());
        return;
      }
      for (const essdds::net::HostHealth& h : *health) {
        std::printf("%s\n", h.json.c_str());
      }
    } else if (sub == "trace") {
      uint64_t id = 0;
      in >> id;
      if (id == 0) {
        std::printf("admin trace wants a nonzero trace id\n");
        return;
      }
      auto trace = admin->AssembleTrace(id);
      if (!trace.ok()) {
        std::printf("scrape failed: %s\n", trace.status().ToString().c_str());
        return;
      }
      std::fputs(essdds::net::FormatAssembledTrace(*trace).c_str(), stdout);
    } else {
      std::printf("admin commands: metrics | health | trace <id>\n");
    }
  }

 private:
  essdds::net::AdminClient* Client() {
    if (client_ != nullptr) return client_.get();
    auto cluster = essdds::net::ClusterMap::Parse(cluster_spec_);
    if (!cluster.ok()) {
      std::printf("bad --cluster: %s\n", cluster.status().ToString().c_str());
      return nullptr;
    }
    essdds::net::AdminClient::Options opts;
    opts.cluster = *cluster;
    auto client = std::make_unique<essdds::net::AdminClient>(opts);
    if (essdds::Status s = client->Connect(); !s.ok()) {
      std::printf("cluster connect failed: %s\n", s.ToString().c_str());
      return nullptr;
    }
    client_ = std::move(client);
    return client_.get();
  }

  std::string cluster_spec_;
  std::unique_ptr<essdds::net::AdminClient> client_;
};

bool ParseNetFlag(const std::string& arg, NetConfig* net) {
  auto value = [&](const char* prefix) -> const char* {
    const size_t len = std::string(prefix).size();
    return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
  };
  if (const char* v = value("--net=")) {
    if (std::string(v) == "event") {
      net->mode = essdds::sdds::NetworkMode::kEvent;
    } else if (std::string(v) == "sync") {
      net->mode = essdds::sdds::NetworkMode::kSync;
    } else {
      std::fprintf(stderr, "unknown --net mode '%s' (sync|event)\n", v);
      return false;
    }
  } else if (const char* seed = value("--net-seed=")) {
    net->event.seed = static_cast<uint64_t>(std::strtoull(seed, nullptr, 10));
  } else if (const char* range = value("--latency=")) {
    unsigned lo = 0, hi = 0;
    if (std::sscanf(range, "%u:%u", &lo, &hi) != 2 || lo > hi) {
      std::fprintf(stderr, "--latency wants MIN:MAX microseconds\n");
      return false;
    }
    net->event.min_latency_us = lo;
    net->event.max_latency_us = hi;
  } else if (const char* drop = value("--drop=")) {
    net->event.drop_prob = std::atof(drop);
  } else if (const char* dup = value("--dup=")) {
    net->event.duplicate_prob = std::atof(dup);
  } else {
    std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 2000;
  size_t scan_threads = 0;
  size_t parity_k = 0;
  size_t parity_m = 0;
  NetConfig net;
  std::string data_dir;
  bool fsync_logs = false;
  bool no_persist = false;
  bool metrics_at_exit = false;
  std::string metrics_file;  // empty = stdout
  bool trace_at_exit = false;
  uint64_t trace_at_exit_id = 0;
  std::string cluster_spec;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--parity=", 0) == 0) {
      unsigned k = 0, m = 0;
      if (std::sscanf(arg.c_str() + sizeof("--parity=") - 1, "%u:%u", &k,
                      &m) != 2 ||
          k == 0 || m == 0 || k + m > 256) {
        std::fprintf(stderr,
                     "--parity wants K:M (group size : parity count, "
                     "1 <= K, 1 <= M, K+M <= 256)\n");
        return 2;
      }
      parity_k = k;
      parity_m = m;
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      data_dir = arg.substr(sizeof("--data-dir=") - 1);
    } else if (arg == "--fsync") {
      fsync_logs = true;
    } else if (arg == "--no-persist") {
      no_persist = true;
    } else if (arg == "--metrics") {
      metrics_at_exit = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_at_exit = true;
      metrics_file = arg.substr(sizeof("--metrics=") - 1);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_at_exit = true;
      trace_at_exit_id = static_cast<uint64_t>(std::strtoull(
          arg.c_str() + sizeof("--trace=") - 1, nullptr, 10));
    } else if (arg.rfind("--cluster=", 0) == 0) {
      cluster_spec = arg.substr(sizeof("--cluster=") - 1);
    } else if (arg.rfind("--", 0) == 0) {
      if (!ParseNetFlag(arg, &net)) return 2;
    } else if (positional == 0) {
      n = static_cast<size_t>(std::atoll(arg.c_str()));
      ++positional;
    } else if (positional == 1) {
      scan_threads = static_cast<size_t>(std::atoll(arg.c_str()));
      ++positional;
    } else {
      std::fprintf(stderr, "too many positional arguments\n");
      return 2;
    }
  }

  // On any client-visible failure, print how to reproduce the exact run.
  const std::string replay = "replay: " + net.ReplayFlags();
  auto report_failure = [&replay](const std::string& what) {
    std::printf("error: %s\n%s\n", what.c_str(), replay.c_str());
  };

  essdds::workload::PhonebookGenerator gen(20060401);
  auto corpus = gen.Generate(n);
  std::vector<std::string> training;
  for (const auto& r : corpus) training.push_back(r.name);

  essdds::core::EncryptedStore::Options options;
  options.params = essdds::core::SchemeParams{.codes_per_chunk = 4,
                                              .dispersal_sites = 4};
  options.record_file.bucket_capacity = 128;
  options.index_file.bucket_capacity = 512;
  options.index_file.scan_threads = scan_threads;
  for (essdds::sdds::LhOptions* file :
       {&options.record_file, &options.index_file}) {
    file->network_mode = net.mode;
    file->event_net = net.event;
    file->parity_group_size = parity_k;
    file->parity_count = parity_m;
  }
  // Distinct seeds so the two files do not replay each other's schedule.
  options.index_file.event_net.seed = net.event.seed * 2 + 1;
  if (!data_dir.empty() && !no_persist) {
    // Separate subtrees: both files number their buckets from 0.
    options.record_file.data_dir = data_dir + "/record_file";
    options.index_file.data_dir = data_dir + "/index_file";
    options.record_file.persist_master = ToBytes("shell persist master");
    options.index_file.persist_master = ToBytes("shell persist master");
    options.record_file.persist_fsync = fsync_logs;
    options.index_file.persist_fsync = fsync_logs;
  }

  auto store = essdds::core::EncryptedStore::Create(
      options, ToBytes("shell master key"), training);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  const size_t recovered = (*store)->record_file().recovered_bucket_count();
  if (recovered > 0) {
    // The data directory replayed into the buckets — the corpus is already
    // there (or whatever state the previous run acked last).
    std::printf("recovered %llu records from %zu bucket(s) (%s); "
                "type 'help' for commands\n",
                static_cast<unsigned long long>((*store)->record_count()),
                recovered, net.ReplayFlags().c_str());
  } else {
    for (const auto& r : corpus) {
      auto st = (*store)->Insert(r.rid, r.name);
      if (!st.ok()) {
        report_failure("load: " + st.ToString());
        return 1;
      }
    }
    std::printf("loaded %zu records (%s); type 'help' for commands\n", n,
                net.ReplayFlags().c_str());
  }

  AdminCommands admin_commands(cluster_spec);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "params") {
      std::printf("%s\n", (*store)->params().ToString().c_str());
    } else if (cmd == "stats") {
      std::printf("records: %llu | record buckets: %zu | index buckets: %zu\n",
                  static_cast<unsigned long long>((*store)->record_count()),
                  (*store)->record_file().bucket_count(),
                  (*store)->index_file().bucket_count());
      std::printf("index traffic: %s\n",
                  (*store)->index_file().network().stats().ToString().c_str());
    } else if (cmd == "metrics") {
      std::printf("%s\n", MetricsJson(**store).c_str());
    } else if (cmd == "admin") {
      admin_commands.Run(in);
    } else if (cmd == "trace") {
      std::string which;
      in >> which;
      if (which == "all" || which.empty()) {
        PrintTrace(**store, 0);
      } else if (which == "last") {
        PrintTrace(**store, LastTraceId(**store));
      } else {
        PrintTrace(**store, static_cast<uint64_t>(
                                std::strtoull(which.c_str(), nullptr, 10)));
      }
    } else if (cmd == "search" || cmd == "short") {
      std::string query;
      std::getline(in, query);
      if (!query.empty() && query[0] == ' ') query.erase(0, 1);
      auto rids = cmd == "search"
                      ? (*store)->Search(query)
                      : (*store)->SearchWithExpansion(
                            query, "ABCDEFGHIJKLMNOPQRSTUVWXYZ &'-");
      if (!rids.ok()) {
        report_failure(rids.status().ToString());
        continue;
      }
      std::printf("%zu hit(s)\n", rids->size());
      size_t shown = 0;
      for (uint64_t rid : *rids) {
        auto content = (*store)->Get(rid);
        std::printf("  %llu  %s\n", static_cast<unsigned long long>(rid),
                    content.ok() ? content->c_str() : "<decrypt failed>");
        if (++shown == 10 && rids->size() > 10) {
          std::printf("  ... %zu more\n", rids->size() - shown);
          break;
        }
      }
    } else if (cmd == "get") {
      uint64_t rid = 0;
      in >> rid;
      auto content = (*store)->Get(rid);
      if (content.ok()) {
        std::printf("%s\n", content->c_str());
      } else if (content.status().IsNotFound()) {
        std::printf("%s\n", content.status().ToString().c_str());
      } else {
        report_failure(content.status().ToString());
      }
    } else if (cmd == "kill") {
      uint64_t bucket = 0;
      if (!(in >> bucket)) {
        std::printf("kill wants a record-file bucket number\n");
        continue;
      }
      essdds::sdds::LhSystem& rf = (*store)->record_file();
      if (rf.event_network() == nullptr) {
        std::printf("kill needs --net=event (site death is only observable "
                    "on the asynchronous network)\n");
      } else if (rf.options().parity_group_size == 0) {
        std::printf("kill needs --parity=K:M; without parity headroom the "
                    "bucket would be unrecoverable\n");
      } else if (bucket >= rf.bucket_count()) {
        std::printf("no bucket %llu (record-file extent is %zu)\n",
                    static_cast<unsigned long long>(bucket),
                    rf.bucket_count());
      } else {
        rf.event_network()->KillSite(rf.bucket(bucket).site());
        std::printf("killed record-file bucket %llu's site; the next op "
                    "touching it reports, declares, and reconstructs "
                    "(watch recovery.* in `metrics`)\n",
                    static_cast<unsigned long long>(bucket));
      }
    } else if (cmd == "insert") {
      uint64_t rid = 0;
      std::string name;
      in >> rid;
      std::getline(in, name);
      if (!name.empty() && name[0] == ' ') name.erase(0, 1);
      auto st = (*store)->Insert(rid, name);
      if (!st.ok()) {
        report_failure(st.ToString());
      } else {
        std::printf("%s\n", st.ToString().c_str());
      }
    } else if (cmd == "delete") {
      uint64_t rid = 0;
      in >> rid;
      auto st = (*store)->Delete(rid);
      if (!st.ok() && !st.IsNotFound()) {
        report_failure(st.ToString());
      } else {
        std::printf("%s\n", st.ToString().c_str());
      }
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
  }

  if (trace_at_exit) PrintTrace(**store, trace_at_exit_id);
  if (metrics_at_exit) {
    const std::string json = MetricsJson(**store);
    if (metrics_file.empty()) {
      std::printf("%s\n", json.c_str());
    } else {
      std::FILE* f = std::fopen(metrics_file.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write metrics to '%s'\n",
                     metrics_file.c_str());
        return 1;
      }
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
      std::printf("metrics written to %s\n", metrics_file.c_str());
    }
  }
  return 0;
}
