// Scan-engine benchmark: (1) the site-side matcher — seed-style naive
// matching (per-record failure-table construction via FindOccurrences)
// against the BatchMatcher over a columnar arena (query compiled once);
// (2) end-to-end encrypted search on the phonebook workload, serial vs
// pooled vs pooled+sharded index scans. Emits one JSON object so CI can
// track the numbers.
//
// Scale with ESSDDS_RECORDS=<n> (default 20,000 — the matcher contrast is
// size-independent, the end-to-end part is wall-clock bound).

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/batch_matcher.h"
#include "core/encrypted_store.h"
#include "core/matcher.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "util/json_writer.h"

namespace essdds::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One stored index record as the scan sees it: coordinates plus stream.
struct IndexedStream {
  uint32_t family;
  uint32_t site;
  std::vector<uint64_t> stream;
};

/// The seed's per-record matching path: FindOccurrences builds the KMP
/// failure table (and an occurrence vector) anew for every record.
bool NaiveMatch(const core::SearchQuery& query, const IndexedStream& rec) {
  for (const core::QuerySeries& s : query.SeriesFor(rec.family)) {
    const std::vector<uint64_t>& pattern = query.PatternFor(s, rec.site);
    if (!core::FindOccurrences(rec.stream, pattern).empty()) return true;
  }
  return false;
}

struct MatcherNumbers {
  double naive_records_per_sec = 0;
  double columnar_records_per_sec = 0;
  size_t records = 0;
  size_t matched = 0;
};

MatcherNumbers RunMatcherContrast(size_t corpus_size) {
  const core::SchemeParams params{.codes_per_chunk = 4, .dispersal_sites = 2};
  auto corpus = LoadCorpus(corpus_size);
  std::vector<std::string> training;
  training.reserve(corpus.size());
  for (const auto& r : corpus) training.push_back(r.name);
  auto pipeline =
      core::IndexPipeline::Create(params, ToBytes("perf-scan-key"), training);
  ESSDDS_CHECK(pipeline.ok()) << pipeline.status();

  std::vector<IndexedStream> records;
  for (const auto& r : corpus) {
    for (core::IndexRecordData& rec :
         pipeline->BuildIndexRecords(r.rid, r.name)) {
      records.push_back(
          IndexedStream{rec.family, rec.site, std::move(rec.stream)});
    }
  }
  auto built = pipeline->BuildQuery("SCHWARZ");
  ESSDDS_CHECK(built.ok()) << built.status();
  const core::SearchQuery query = *std::move(built);

  MatcherNumbers out;
  out.records = records.size();

  // Several passes so each side runs long enough to time reliably.
  const int kPasses = 5;
  size_t naive_matched = 0;
  auto t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const IndexedStream& rec : records) {
      naive_matched += NaiveMatch(query, rec) ? 1 : 0;
    }
  }
  const double naive_s = SecondsSince(t0);

  // Columnar/batch leg: decoded streams packed into one contiguous value
  // arena with offset/length arrays — the layout a bucket's ColumnStore
  // presents to a scan shard — driven through the bit-parallel BatchMatcher.
  std::vector<uint64_t> arena;
  std::vector<size_t> offsets, lengths;
  std::vector<uint32_t> families, sites;
  offsets.reserve(records.size());
  lengths.reserve(records.size());
  families.reserve(records.size());
  sites.reserve(records.size());
  for (const IndexedStream& rec : records) {
    offsets.push_back(arena.size());
    lengths.push_back(rec.stream.size());
    families.push_back(rec.family);
    sites.push_back(rec.site);
    arena.insert(arena.end(), rec.stream.begin(), rec.stream.end());
  }
  const core::BatchMatcher batch(&query);
  size_t columnar_matched = 0;
  t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < offsets.size(); ++i) {
      columnar_matched +=
          batch.Matches(families[i], sites[i],
                        std::span<const uint64_t>(arena.data() + offsets[i],
                                                  lengths[i]))
              ? 1
              : 0;
    }
  }
  const double columnar_s = SecondsSince(t0);
  ESSDDS_CHECK(columnar_matched == naive_matched)
      << "matcher disagreement: " << columnar_matched << " vs "
      << naive_matched;

  const double total = static_cast<double>(records.size()) * kPasses;
  out.naive_records_per_sec = total / naive_s;
  out.columnar_records_per_sec = total / columnar_s;
  out.matched = naive_matched / kPasses;
  return out;
}

struct ScanNumbers {
  double ms_per_search = 0;
  double index_records_per_sec = 0;
  size_t hits = 0;
  // Batch-shape histograms from the index network's metric registry
  // (zero-count with -DESSDDS_METRICS=OFF): tasks per drained batch and
  // shards those tasks split into.
  obs::Histogram::Summary batch_tasks;
  obs::Histogram::Summary batch_shards;
};

/// Emits a Histogram::Summary as the next value (an object).
void SummaryValue(JsonWriter& w, const obs::Histogram::Summary& s) {
  w.BeginObject()
      .KV("count", s.count)
      .KV("p50", s.p50)
      .KV("p95", s.p95)
      .KV("p99", s.p99)
      .KV("max", s.max)
      .EndObject();
}

ScanNumbers RunStoreSearches(size_t corpus_size, size_t scan_threads,
                             size_t shard_min_records =
                                 sdds::LhOptions{}.scan_shard_min_records) {
  core::EncryptedStore::Options opts;
  opts.params = core::SchemeParams{.codes_per_chunk = 4, .dispersal_sites = 2};
  opts.record_file.bucket_capacity = 64;
  opts.index_file.bucket_capacity = 128;
  opts.index_file.scan_threads = scan_threads;
  opts.index_file.scan_shard_min_records = shard_min_records;
  auto store =
      core::EncryptedStore::Create(opts, ToBytes("perf-scan-key"), {});
  ESSDDS_CHECK(store.ok()) << store.status();

  auto corpus = LoadCorpus(corpus_size);
  for (const auto& r : corpus) {
    ESSDDS_CHECK((*store)->Insert(r.rid, r.name).ok());
  }
  const double index_records =
      static_cast<double>((*store)->index_file().TotalRecords());

  const std::vector<std::string> queries = {"SCHWARZ", "MARIA",  "GARCIA",
                                            "JOHNSON", "THOMAS", "NGUYEN"};
  ScanNumbers out;
  // Warm once (image adjustments, allocator), then reset so the reported
  // metrics cover exactly the measured phase, and measure.
  ESSDDS_CHECK((*store)->Search(queries[0]).ok());
  (*store)->index_file().network().ResetStats();
  auto t0 = Clock::now();
  for (const std::string& q : queries) {
    auto rids = (*store)->Search(q);
    ESSDDS_CHECK(rids.ok()) << rids.status();
    out.hits += rids->size();
  }
  const double elapsed = SecondsSince(t0);
  out.ms_per_search = 1e3 * elapsed / static_cast<double>(queries.size());
  // Every search evaluates every index record once at its site.
  out.index_records_per_sec =
      index_records * static_cast<double>(queries.size()) / elapsed;
  obs::MetricRegistry& metrics = (*store)->index_file().network().metrics();
  out.batch_tasks = metrics.histogram("scan.batch_tasks").Summarize();
  out.batch_shards = metrics.histogram("scan.batch_shards").Summarize();
  return out;
}

int Main() {
  const size_t corpus_size = CorpusSize(/*default_size=*/20000);
#if ESSDDS_THREADS
  size_t threads = std::thread::hardware_concurrency();
  if (threads < 2) threads = 2;
#else
  const size_t threads = 0;  // thread support compiled out
#endif

  // Shard threshold for the sharded legs: low enough that the 128-capacity
  // index buckets actually shard.
  const size_t shard_min = 32;

  const MatcherNumbers m = RunMatcherContrast(corpus_size);
  const ScanNumbers serial = RunStoreSearches(corpus_size, 0);
  const ScanNumbers parallel = RunStoreSearches(corpus_size, threads);
  const ScanNumbers sharded =
      RunStoreSearches(corpus_size, threads, shard_min);

  const bool hits_agree =
      serial.hits == parallel.hits && serial.hits == sharded.hits;

  JsonWriter w;
  w.BeginObject();
  w.KV("corpus_records", static_cast<uint64_t>(corpus_size));
  w.Key("matcher").BeginObject();
  w.KV("index_records", static_cast<uint64_t>(m.records));
  w.KV("records_matched", static_cast<uint64_t>(m.matched));
  w.KV("naive_records_per_sec", m.naive_records_per_sec, 0);
  w.KV("columnar_records_per_sec", m.columnar_records_per_sec, 0);
  w.KV("columnar_speedup_vs_naive",
       m.columnar_records_per_sec / m.naive_records_per_sec, 2);
  w.EndObject();
  w.Key("search").BeginObject();
  w.KV("scan_threads", static_cast<uint64_t>(threads));
  w.KV("shard_min_records", static_cast<uint64_t>(shard_min));
  w.KV("serial_ms_per_search", serial.ms_per_search, 2);
  w.KV("parallel_ms_per_search", parallel.ms_per_search, 2);
  w.KV("sharded_ms_per_search", sharded.ms_per_search, 2);
  w.KV("serial_index_records_per_sec", serial.index_records_per_sec, 0);
  w.KV("parallel_index_records_per_sec", parallel.index_records_per_sec, 0);
  w.KV("sharded_index_records_per_sec", sharded.index_records_per_sec, 0);
  w.KV("hits_agree", hits_agree);
  // Batch-shape histograms of the measured phase (metrics builds only;
  // zero-count objects with -DESSDDS_METRICS=OFF).
  w.Key("parallel_batch_tasks");
  SummaryValue(w, parallel.batch_tasks);
  w.Key("sharded_batch_tasks");
  SummaryValue(w, sharded.batch_tasks);
  w.Key("sharded_batch_shards");
  SummaryValue(w, sharded.batch_shards);
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return hits_agree ? 0 : 1;
}

}  // namespace
}  // namespace essdds::bench

int main() { return essdds::bench::Main(); }
