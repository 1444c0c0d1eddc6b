// One traced round of durable ingest, run at the end of the traced `search`
// run for the write path's per-layer metrics. One client streams
// kRoundRecords fresh phonebook records through EncryptedStore::Insert into
// a store whose two LH* files both log to disk (no fsync) and keep LH*RS
// parity (groups of 4, one parity bucket). Exercises Seal,
// BuildIndexRecords (chunk, encode, ECB, GF dispersal), LH* splits with
// ColumnStore rebuilds, log appends and checkpoints, and parity deltas; runs
// no scans. A seeded sample of the records is read back and checked.
//
// Ingest is not a workload of its own: its run-to-run spread exceeded every
// bound BENCHMARK.json allows (NOTES.md keeps the measurements).

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/encrypted_store.h"
#include "core/pipeline.h"
#include "crypto/record_cipher.h"
#include "obs/metrics.h"
#include "sdds/lh_system.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/phonebook.h"
#include "workloads.h"

namespace essdds::perfbench {
namespace {

constexpr size_t kRoundRecords = 12'500;
constexpr size_t kReadback = 1'000;

Bytes MasterKey(uint64_t seed) {
  return ToBytes("perfbench-ingest-" + std::to_string(seed));
}

core::EncryptedStore::Options StoreOptions(const std::string& dir) {
  core::EncryptedStore::Options opts;
  opts.params = core::SchemeParams{.codes_per_chunk = 4, .dispersal_sites = 4};
  for (sdds::LhOptions* file : {&opts.record_file, &opts.index_file}) {
    file->persist_fsync = false;
    file->parity_group_size = 4;
    file->parity_count = 1;
  }
  opts.record_file.bucket_capacity = 256;
  opts.index_file.bucket_capacity = 512;
  opts.record_file.data_dir = dir + "/records";
  opts.index_file.data_dir = dir + "/index";
  return opts;
}

/// Counters of one LH* file's own registry, read around calls.
struct FileCounters {
  explicit FileCounters(sdds::LhSystem& file)
      : splits(file.network().metrics().counter("coord.splits")),
        checkpoints(file.network().metrics().counter("persist.checkpoints")),
        frames(file.network().metrics().counter("persist.appended_frames")),
        log_bytes(file.network().metrics().gauge("persist.log_bytes")),
        stats(file.network().stats()) {}
  obs::Counter& splits;
  obs::Counter& checkpoints;
  obs::Counter& frames;
  obs::Gauge& log_bytes;
  const sdds::NetworkStats& stats;
};

}  // namespace

Report RunIngest(const Args& args) {
  Report report;

  // Inputs, generated before anything is timed.
  const std::vector<workload::PhoneRecord> records =
      Phonebook(args.seed, kRoundRecords);
  uint64_t user_bytes = 0;
  for (const workload::PhoneRecord& r : records) user_bytes += r.name.size();
  std::vector<size_t> readback(records.size());
  for (size_t i = 0; i < readback.size(); ++i) readback[i] = i;
  Rng rng(args.seed + 7);
  rng.Shuffle(readback);
  readback.resize(std::min(kReadback, readback.size()));

  auto cipher = crypto::RecordCipher::Create(MasterKey(args.seed));
  ESSDDS_CHECK(cipher.ok()) << cipher.status();

  const std::string dir = args.scratch_dir;
  std::filesystem::remove_all(dir);
  auto store =
      core::EncryptedStore::Create(StoreOptions(dir), MasterKey(args.seed), {});
  ESSDDS_CHECK(store.ok()) << store.status();
  const FileCounters rec((*store)->record_file());
  const FileCounters idx((*store)->index_file());
  auto splits = [&] { return rec.splits.value() + idx.splits.value(); };
  auto checkpoints = [&] {
    return rec.checkpoints.value() + idx.checkpoints.value();
  };

  // Each insert is preceded by a replay of its Seal and index build from
  // outside (timed as spans); the Insert call is timed on its own, with the
  // split and checkpoint counters read around it.
  Tracer tracer(true);
  std::vector<double> insert_us;
  std::vector<bool> split_during, checkpoint_during;
  uint64_t replay_sequence = 0;
  for (const workload::PhoneRecord& r : records) {
    {
      Tracer::Scope seal(&tracer, "crypto.seal");
      const Bytes sealed = cipher->Seal(
          r.rid, ++replay_sequence,
          ByteSpan(reinterpret_cast<const uint8_t*>(r.name.data()),
                   r.name.size()));
      ESSDDS_CHECK(!sealed.empty());
    }
    {
      Tracer::Scope build(&tracer, "core.build_index");
      for (const core::IndexRecordData& ir :
           (*store)->pipeline().BuildIndexRecords(r.rid, r.name)) {
        ESSDDS_CHECK(!(*store)->pipeline().SerializeStream(ir.stream).empty());
      }
    }
    const uint64_t splits0 = splits(), checkpoints0 = checkpoints();
    const auto s0 = Clock::now();
    if (!(*store)->Insert(r.rid, r.name).ok()) ++report.failed;
    insert_us.push_back(MicrosSince(s0));
    ++report.attempted;
    split_during.push_back(splits() != splits0);
    checkpoint_during.push_back(checkpoints() != checkpoints0);
  }

  // Read back a seeded sample; a wrong or missing plaintext is a failure.
  for (size_t i : readback) {
    auto text = (*store)->Get(records[i].rid);
    ++report.attempted;
    if (!text.ok() || *text != records[i].name) ++report.failed;
  }

  const double n = static_cast<double>(records.size());
  const double disk_ratio =
      static_cast<double>(DirectoryBytes(dir)) / static_cast<double>(user_bytes);
  const std::string data_fs = FilesystemOf(dir);
  const double p99_us = Percentile(insert_us, 0.99);
  // Inserts slower than p99, and how many of them overlapped a split or a
  // checkpoint.
  size_t slow = 0, slow_split = 0, slow_checkpoint = 0;
  for (size_t i = 0; i < insert_us.size(); ++i) {
    if (insert_us[i] <= p99_us) continue;
    ++slow;
    slow_split += split_during[i];
    slow_checkpoint += checkpoint_during[i];
  }

  auto& L = report.layers;
  L["crypto.seal_us"] = {Median(tracer.Durations("crypto.seal")), "us"};
  L["core.build_index_us"] = {Median(tracer.Durations("core.build_index")), "us"};
  L["sdds.msgs_per_insert"] = {
      static_cast<double>(rec.stats.total_messages + idx.stats.total_messages) / n,
      "count"};
  L["sdds.bytes_per_insert"] = {
      static_cast<double>(rec.stats.total_bytes + idx.stats.total_bytes) / n,
      "bytes"};
  L["sdds.splits"] = {static_cast<double>(splits()), "count"};
  L["persist.frames_per_insert"] = {
      static_cast<double>(rec.frames.value() + idx.frames.value()) / n, "count"};
  L["persist.checkpoints"] = {static_cast<double>(checkpoints()), "count"};
  L["persist.log_bytes"] = {
      static_cast<double>(rec.log_bytes.value() + idx.log_bytes.value()),
      "bytes"};
  L["persist.disk_bytes_per_user_byte"] = {disk_ratio, "ratio"};
  L["ingest.p99_split_share"] = {
      slow ? static_cast<double>(slow_split) / slow : 0.0, "ratio"};
  L["ingest.p99_checkpoint_share"] = {
      slow ? static_cast<double>(slow_checkpoint) / slow : 0.0, "ratio"};
  tracer.WriteTsv(args.spans_path);
  store->reset();
  std::filesystem::remove_all(dir);

  auto& D = report.detail;
  D["insert_per_s"] = {PerSecond(insert_us), "1/s"};
  D["insert_p50_us"] = {Percentile(insert_us, 0.50), "us"};
  D["insert_p99_us"] = {p99_us, "us"};
  D["disk_bytes_per_user_byte"] = {disk_ratio, "ratio"};
  D["records"] = {n, "count"};
  report.facts["flush_policy"] =
      "persist_fsync=false: appends and checkpoints reach the OS page cache "
      "only";
  report.facts["data_dir_filesystem"] = data_fs;
  report.facts["parity"] = "parity_group_size=4 parity_count=1 on both files";
  return report;
}

}  // namespace essdds::perfbench
