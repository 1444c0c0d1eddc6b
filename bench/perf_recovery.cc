// Recovery benchmarks: (1) the append-before-ack logging overhead — insert
// throughput of a RAM-only LhSystem against one writing encrypted bucket
// logs; (2) restart recovery — wall-clock to rebuild the full file from its
// logs, for a raw append-only history and for a checkpoint-compacted one
// (small floor, so each log is mostly a single snapshot frame); (3) parity
// reconstruction — kill a live bucket's site on the event network and
// measure the whole detect -> probe -> declare -> slice -> decode -> rebuild
// pipeline (DESIGN.md §16), for m = 1 and m = 2 parity headroom. Emits one
// JSON object so CI can track the numbers.
//
// Scale with ESSDDS_RECORDS=<n> (default 20,000 — logging overhead is
// per-record, recovery time is linear in the replayed history; the parity
// leg runs at 1/10th of it, event-network pumping is per-message).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sdds/event_network.h"
#include "sdds/lh_system.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/random.h"

namespace essdds::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Bytes Value(uint64_t key) {
  return ToBytes("recovery-bench-payload-" + std::to_string(key));
}

sdds::LhOptions MakeOptions(const std::string& data_dir,
                            size_t checkpoint_min) {
  sdds::LhOptions o;
  o.bucket_capacity = 128;
  o.data_dir = data_dir;
  o.log_checkpoint_min_bytes = checkpoint_min;
  return o;
}

struct LoadNumbers {
  double inserts_per_sec = 0;
  size_t buckets = 0;
  uintmax_t log_bytes = 0;  // on-disk footprint after the load
};

/// Inserts the workload into a fresh LhSystem (RAM-only when `data_dir` is
/// empty) and reports throughput plus the resulting on-disk footprint.
LoadNumbers RunLoad(size_t records, const std::string& data_dir,
                    size_t checkpoint_min) {
  Rng rng(20060401);
  std::vector<uint64_t> keys;
  keys.reserve(records);
  for (size_t i = 0; i < records; ++i) keys.push_back(rng.Next());

  sdds::LhSystem sys(MakeOptions(data_dir, checkpoint_min));
  sdds::LhClient* client = sys.NewClient();
  const auto start = Clock::now();
  for (uint64_t k : keys) client->Insert(k, Value(k));
  const double elapsed = SecondsSince(start);

  LoadNumbers out;
  out.inserts_per_sec = static_cast<double>(records) / elapsed;
  out.buckets = sys.bucket_count();
  if (!data_dir.empty()) {
    for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
      out.log_bytes += entry.file_size();
    }
  }
  return out;
}

struct RecoveryNumbers {
  double recovery_sec = 0;
  double records_per_sec = 0;
  size_t buckets = 0;
  uint64_t records = 0;
};

/// Rebuilds an LhSystem over an existing data directory — the restart path —
/// and reports how long the constructor's replay took.
RecoveryNumbers RunRecovery(const std::string& data_dir,
                            size_t checkpoint_min) {
  const auto start = Clock::now();
  sdds::LhSystem sys(MakeOptions(data_dir, checkpoint_min));
  RecoveryNumbers out;
  out.recovery_sec = SecondsSince(start);
  out.buckets = sys.recovered_bucket_count();
  out.records = sys.TotalRecords();
  out.records_per_sec = static_cast<double>(out.records) / out.recovery_sec;
  return out;
}

struct ReconstructionNumbers {
  size_t buckets = 0;        // file extent at kill time
  size_t kills = 0;          // completed trials
  double victim_records = 0; // mean records rebuilt per kill
  double wall_sec = 0;       // mean real seconds, kill -> rebuilt+verified
  double virtual_us = 0;     // mean virtual us, kill -> network idle
  uint64_t decl_to_rebuilt_us_p50 = 0;  // coordinator's own span (metrics)
};

/// Loads an event-network LhSystem with (k, m) parity groups, then
/// repeatedly kills a bucket's site and drives the full recovery pipeline —
/// client retries report the silence, the coordinator probes and declares,
/// the parity proxy gathers survivor slices and RS-decodes the loss, the
/// rebuilt bucket re-registers — timing kill-to-rebuilt and verifying the
/// reconstruction is byte-identical each trial.
ReconstructionNumbers RunReconstruction(size_t records, size_t k, size_t m,
                                        size_t kills) {
  sdds::LhOptions o;
  o.bucket_capacity = 32;
  o.merge_threshold = 0.0;  // socket parity v1: no shrinking under parity
  o.parity_group_size = k;
  o.parity_count = m;
  o.network_mode = sdds::NetworkMode::kEvent;
  o.event_net.seed = 20060401;
  // Same tight detection timings as the recovery suite: one retry burst
  // walks detect -> probe -> declare; rebuild immediately (no hold) so the
  // number is reconstruction cost, not the configured degraded window.
  o.request_timeout_us = 3'000;
  o.ping_timeout_us = 6'000;
  o.recovery_hold_us = 0;
  sdds::LhSystem sys(o);
  sdds::LhClient* client = sys.NewClient();
  Rng rng(20060401);
  for (size_t i = 0; i < records; ++i) {
    const uint64_t key = rng.Next();
    client->Insert(key, Value(key));
  }
  sys.network().PumpUntilIdle();

  ReconstructionNumbers out;
  out.buckets = sys.bucket_count();
  for (size_t trial = 0; trial < kills; ++trial) {
    const uint64_t victim = (trial * 7 + 1) % sys.bucket_count();
    const auto healthy = sys.bucket(victim).records();
    if (healthy.empty()) continue;
    const uint64_t probe_key = healthy.begin()->first;
    out.victim_records += static_cast<double>(healthy.size());

    const uint64_t virtual_start = sys.event_network()->now_us();
    const auto start = Clock::now();
    sys.event_network()->KillSite(sys.bucket(victim).site());
    // The lookup's retries raise the kDeadSite report and park on the dead
    // address until the proxy takes it over; PumpUntilIdle then completes
    // the rebuild.
    auto r = client->Lookup(probe_key);
    sys.network().PumpUntilIdle();
    out.wall_sec += SecondsSince(start);
    out.virtual_us +=
        static_cast<double>(sys.event_network()->now_us() - virtual_start);

    ESSDDS_CHECK(r.ok()) << "key lost with the site";
    ESSDDS_CHECK(!sys.bucket_dead(victim));
    ESSDDS_CHECK(sys.bucket(victim).records() == healthy)
        << "reconstruction not byte-identical";
    ++out.kills;
  }
  if (out.kills > 0) {
    out.victim_records /= static_cast<double>(out.kills);
    out.wall_sec /= static_cast<double>(out.kills);
    out.virtual_us /= static_cast<double>(out.kills);
  }
  out.decl_to_rebuilt_us_p50 = sys.network()
                                   .metrics()
                                   .histogram("recovery.reconstruction_us")
                                   .Summarize()
                                   .p50;
  return out;
}

int Main() {
  const size_t records = CorpusSize(/*default_size=*/20'000);
  const std::string base =
      (std::filesystem::temp_directory_path() / "essdds_perf_recovery")
          .string();
  std::filesystem::remove_all(base);

  PrintHeader("Durable persistence: logging overhead and restart recovery (" +
              std::to_string(records) + " records)");

  const LoadNumbers ram = RunLoad(records, "", 64 * 1024);
  std::printf("RAM-only load:        %12.0f inserts/s (%zu buckets)\n",
              ram.inserts_per_sec, ram.buckets);

  // Raw history: a floor far above the workload, so no log ever compacts.
  const std::string raw_dir = base + "/raw";
  std::filesystem::create_directories(raw_dir);
  const size_t raw_floor = size_t{1} << 30;
  const LoadNumbers raw = RunLoad(records, raw_dir, raw_floor);
  std::printf("Logged load (raw):    %12.0f inserts/s (%.2fx overhead, "
              "%ju log bytes)\n",
              raw.inserts_per_sec, ram.inserts_per_sec / raw.inserts_per_sec,
              raw.log_bytes);

  // Compacted history: the default floor lets busy buckets checkpoint.
  const std::string ckpt_dir = base + "/compacted";
  std::filesystem::create_directories(ckpt_dir);
  const size_t ckpt_floor = 4 * 1024;
  const LoadNumbers ckpt = RunLoad(records, ckpt_dir, ckpt_floor);
  std::printf("Logged load (ckpt):   %12.0f inserts/s (%.2fx overhead, "
              "%ju log bytes)\n",
              ckpt.inserts_per_sec, ram.inserts_per_sec / ckpt.inserts_per_sec,
              ckpt.log_bytes);

  const RecoveryNumbers raw_rec = RunRecovery(raw_dir, raw_floor);
  std::printf("Recovery (raw):       %12.3f ms, %.0f records/s "
              "(%zu buckets, %llu records)\n",
              raw_rec.recovery_sec * 1e3, raw_rec.records_per_sec,
              raw_rec.buckets, static_cast<unsigned long long>(raw_rec.records));

  const RecoveryNumbers ckpt_rec = RunRecovery(ckpt_dir, ckpt_floor);
  std::printf("Recovery (ckpt):      %12.3f ms, %.0f records/s "
              "(%zu buckets, %llu records)\n",
              ckpt_rec.recovery_sec * 1e3, ckpt_rec.records_per_sec,
              ckpt_rec.buckets,
              static_cast<unsigned long long>(ckpt_rec.records));

  // Parity reconstruction (LH*RS-style site-kill recovery). 1/10th scale:
  // the event network pumps every message and parity delta one by one.
  const size_t parity_records = std::max<size_t>(records / 10, 500);
  const size_t kills = 3;
  PrintHeader("Parity reconstruction: site kill -> RS rebuild (" +
              std::to_string(parity_records) + " records, " +
              std::to_string(kills) + " kills per config)");
  const ReconstructionNumbers m1 =
      RunReconstruction(parity_records, /*k=*/4, /*m=*/1, kills);
  std::printf("Reconstruction k=4 m=1: %9.3f ms wall, %8.0f us virtual "
              "(%.0f records/kill, %zu buckets)\n",
              m1.wall_sec * 1e3, m1.virtual_us, m1.victim_records,
              m1.buckets);
  const ReconstructionNumbers m2 =
      RunReconstruction(parity_records, /*k=*/4, /*m=*/2, kills);
  std::printf("Reconstruction k=4 m=2: %9.3f ms wall, %8.0f us virtual "
              "(%.0f records/kill, %zu buckets)\n",
              m2.wall_sec * 1e3, m2.virtual_us, m2.victim_records,
              m2.buckets);

  JsonWriter w;
  w.BeginObject();
  w.Key("records").Value(static_cast<uint64_t>(records));
  w.Key("ram_inserts_per_sec").Value(ram.inserts_per_sec);
  w.Key("logged_inserts_per_sec_raw").Value(raw.inserts_per_sec);
  w.Key("logged_inserts_per_sec_compacted").Value(ckpt.inserts_per_sec);
  w.Key("log_bytes_raw").Value(static_cast<uint64_t>(raw.log_bytes));
  w.Key("log_bytes_compacted").Value(static_cast<uint64_t>(ckpt.log_bytes));
  w.Key("recovery_sec_raw").Value(raw_rec.recovery_sec);
  w.Key("recovery_sec_compacted").Value(ckpt_rec.recovery_sec);
  w.Key("recovered_records").Value(raw_rec.records);
  for (const auto* leg : {&m1, &m2}) {
    w.Key(leg == &m1 ? "reconstruction_k4m1" : "reconstruction_k4m2")
        .BeginObject()
        .KV("records", static_cast<uint64_t>(parity_records))
        .KV("buckets", static_cast<uint64_t>(leg->buckets))
        .KV("kills", static_cast<uint64_t>(leg->kills))
        .KV("victim_records_mean", leg->victim_records)
        .KV("reconstruction_wall_sec_mean", leg->wall_sec)
        .KV("reconstruction_virtual_us_mean", leg->virtual_us)
        .KV("declare_to_rebuilt_us_p50", leg->decl_to_rebuilt_us_p50)
        .EndObject();
  }
  w.EndObject();
  std::printf("\n%s\n", w.str().c_str());

  std::filesystem::remove_all(base);
  return 0;
}

}  // namespace
}  // namespace essdds::bench

int main() { return essdds::bench::Main(); }
