// `search` workload: one closed-loop client searches an in-RAM EncryptedStore
// of PhonebookGenerator records for sampled surnames (the paper's §7
// experiment) and Gets every returned rid. Exercises the scan fan-out, the
// ColumnStore, the scan worker pool, BatchMatcher, client-side confirmation
// and RecordCipher::Open; never touches persist, parity, net or inserts
// after setup.
//
// The traced run ends with one durable ingest round (ingest.cc) for the
// write path's per-layer metrics.
//
// The measured phase makes passes over the fixed query list until --seconds
// have gone by (at least one whole pass). Each query's latency is the median
// of its passes, so a slow phase of the machine that hits a minority of the
// passes moves none of the end-to-end numbers; those are taken over the
// per-query medians. Quality counts come from the first pass and repeat
// exactly for a seed.
//
// The store is loaded kSetups times, spread evenly over the measured phase
// (once before it, then at equal steps of --seconds, the last at its end),
// each load replacing the searched store; setup_s is the median load. A
// single load's time moves by up to half with the machine's phases, so
// loads back to back would sample one moment.

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/batch_matcher.h"
#include "core/encrypted_store.h"
#include "core/pipeline.h"
#include "crypto/record_cipher.h"
#include "sdds/lh_system.h"
#include "util/logging.h"
#include "workload/phonebook.h"
#include "workloads.h"

namespace essdds::perfbench {
namespace {

constexpr size_t kRecords = 50'000;
constexpr size_t kSampledRecords = 128;
constexpr size_t kSetups = 13;
/// Traced runs re-time Lookup + Open on at most this many hits per search.
constexpr size_t kReplayedHits = 8;
constexpr int kEmptyScans = 20;
constexpr int kMatcherPasses = 3;

core::EncryptedStore::Options StoreOptions() {
  core::EncryptedStore::Options opts;
  opts.params = core::SchemeParams{.codes_per_chunk = 4, .dispersal_sites = 4};
  opts.record_file.bucket_capacity = 256;
  opts.index_file.bucket_capacity = 512;
  opts.index_file.scan_threads = 2;
  return opts;
}

Bytes MasterKey(uint64_t seed) {
  return ToBytes("perfbench-search-" + std::to_string(seed));
}

/// Matches nothing and does no per-record work: a scan under it costs the
/// fan-out, the worker pool dispatch and the replies only.
class MatchNothingFilter : public sdds::ScanFilter {
 public:
  std::unique_ptr<Prepared> Prepare(ByteSpan /*arg*/) const override {
    return std::make_unique<Nothing>();
  }

 private:
  class Nothing : public Prepared {
   public:
    bool Matches(uint64_t /*key*/, ByteSpan /*value*/) const override {
      return false;
    }
    void MatchColumns(const sdds::ColumnSlice& /*slice*/, size_t /*begin*/,
                      size_t /*end*/,
                      std::vector<sdds::WireRecord>* /*out*/) const override {}
  };
};

struct Loaded {
  std::unique_ptr<core::EncryptedStore> store;
  uint64_t empty_filter = 0;
};

Loaded Load(const std::vector<workload::PhoneRecord>& corpus, uint64_t seed) {
  auto store = core::EncryptedStore::Create(StoreOptions(), MasterKey(seed), {});
  ESSDDS_CHECK(store.ok()) << store.status();
  for (const workload::PhoneRecord& r : corpus) {
    ESSDDS_CHECK((*store)->Insert(r.rid, r.name).ok());
  }
  Loaded loaded;
  loaded.store = *std::move(store);
  loaded.empty_filter = loaded.store->index_file().InstallFilter(
      std::make_unique<MatchNothingFilter>());
  return loaded;
}

struct Query {
  std::string text;  // surname + " "
  uint64_t sampled_rid = 0;
};

/// Traffic of both LH* files, read without copying the per-type map.
struct Traffic {
  uint64_t msgs = 0;
  uint64_t bytes = 0;
};

Traffic ReadTraffic(core::EncryptedStore& store) {
  const sdds::NetworkStats& a = store.index_file().network().stats();
  const sdds::NetworkStats& b = store.record_file().network().stats();
  return {a.total_messages + b.total_messages, a.total_bytes + b.total_bytes};
}

struct StepResult {
  bool ok = true;
  size_t returned = 0;
  size_t false_positives = 0;
  core::EncryptedStore::SearchStats stats;
  Traffic traffic;
};

class Searcher {
 public:
  Searcher(core::EncryptedStore* store,
           const std::unordered_map<uint64_t, const std::string*>* names,
           uint64_t seed)
      : store_(store),
        names_(names),
        replay_client_(store->record_file().NewClient()),
        cipher_(*crypto::RecordCipher::Create(MasterKey(seed))) {}

  /// One closed-loop step: search, then Get and check every hit. With an
  /// enabled tracer the query build, the lookups and the opens are re-timed
  /// from outside on the same inputs.
  StepResult Step(const Query& q, Tracer& tracer) {
    StepResult out;
    Tracer::Scope step(&tracer, "search.step");
    if (tracer.enabled()) {
      Tracer::Scope span(&tracer, "core.query_build");
      auto built = store_->pipeline().BuildQuery(q.text);
      ESSDDS_CHECK(built.ok()) << built.status();
      const Bytes wire = built->Serialize();
      ESSDDS_CHECK(!wire.empty());
    }
    const Traffic before = ReadTraffic(*store_);
    Result<core::EncryptedStore::SearchOutcome> outcome =
        Status::Internal("not run");
    {
      Tracer::Scope span(&tracer, "core.search_call");
      outcome = store_->SearchDetailed(q.text);
    }
    if (!outcome.ok()) {
      out.ok = false;
      return out;
    }
    const std::vector<uint64_t>& rids = outcome->rids;
    out.stats = outcome->stats;
    out.returned = rids.size();
    // The scheme never misses: the sampled record must be among the hits.
    if (!std::binary_search(rids.begin(), rids.end(), q.sampled_rid)) {
      out.ok = false;
    }
    {
      Tracer::Scope span(&tracer, "core.fetch");
      for (uint64_t rid : rids) {
        Result<std::string> text = store_->Get(rid);
        auto it = names_->find(rid);
        if (!text.ok() || it == names_->end() || *text != *it->second) {
          out.ok = false;
          continue;
        }
        if (text->find(q.text) == std::string::npos) ++out.false_positives;
      }
    }
    const Traffic after = ReadTraffic(*store_);
    out.traffic = {after.msgs - before.msgs, after.bytes - before.bytes};
    if (tracer.enabled()) {
      for (size_t i = 0; i < std::min(rids.size(), kReplayedHits); ++i) {
        Result<Bytes> sealed = Status::Internal("not run");
        {
          Tracer::Scope span(&tracer, "sdds.lookup");
          sealed = replay_client_->Lookup(rids[i]);
        }
        if (!sealed.ok()) {
          out.ok = false;
          continue;
        }
        Tracer::Scope span(&tracer, "crypto.open");
        if (!cipher_.Open(rids[i], *sealed).ok()) out.ok = false;
      }
    }
    return out;
  }

 private:
  core::EncryptedStore* store_;
  const std::unordered_map<uint64_t, const std::string*>* names_;
  sdds::LhClient* replay_client_;
  crypto::RecordCipher cipher_;
};

/// Single-threaded BatchMatcher pass over every index bucket's column
/// slice: the site-side matching work of one search without the pool.
/// Returns the number of index records that matched.
size_t MatcherPass(core::EncryptedStore& store, const std::string& text,
                   size_t* records) {
  auto query = store.pipeline().BuildQuery(text);
  ESSDDS_CHECK(query.ok()) << query.status();
  const core::BatchMatcher matcher(&*query);
  const core::SchemeParams& params = store.params();
  std::vector<uint64_t> stream;
  size_t hits = 0;
  *records = 0;
  sdds::LhSystem& index = store.index_file();
  for (uint64_t b = 0; b < index.bucket_count(); ++b) {
    const sdds::ColumnSlice slice = index.bucket(b).columns().slice();
    for (size_t i = 0; i < slice.count; ++i) {
      uint64_t rid;
      uint32_t family, site;
      core::ParseIndexKey(slice.keys[i], params, &rid, &family, &site);
      if (!store.pipeline().DeserializeStreamInto(slice.payload(i), &stream)
               .ok()) {
        continue;
      }
      if (matcher.Matches(family, site, stream)) ++hits;
    }
    *records += slice.count;
  }
  return hits;
}

}  // namespace

Report RunSearch(const Args& args) {
  Report report;

  // Inputs, generated before anything is timed.
  const std::vector<workload::PhoneRecord> corpus =
      Phonebook(args.seed, kRecords);
  std::unordered_map<uint64_t, const std::string*> names;
  for (const workload::PhoneRecord& r : corpus) names[r.rid] = &r.name;
  const size_t min_symbols = StoreOptions().params.min_query_symbols();
  std::vector<Query> queries;
  size_t dropped = 0;
  for (const workload::PhoneRecord* r :
       workload::SampleRecords(corpus, kSampledRecords, args.seed + 1)) {
    std::string text = std::string(workload::SurnameOf(*r)) + " ";
    if (text.size() < min_symbols) {
      ++dropped;
      continue;
    }
    queries.push_back(Query{std::move(text), r->rid});
  }
  ESSDDS_CHECK(!queries.empty());

  Tracer tracer(args.trace);
  Tracer untraced(false);

  // Set-up: loads a fresh store in place of the previous one, then warms it
  // up (the first scans repair the client images and start the scan pool).
  std::vector<double> setup_s;
  Loaded loaded;
  std::unique_ptr<Searcher> searcher;
  auto reload = [&] {
    searcher.reset();
    loaded = Loaded{};  // free the previous store before building the next
    const auto l0 = Clock::now();
    loaded = Load(corpus, args.seed);
    setup_s.push_back(SecondsSince(l0));
    searcher = std::make_unique<Searcher>(loaded.store.get(), &names, args.seed);
    for (int i = 0; i < 2; ++i) searcher->Step(queries[0], untraced);
  };
  reload();

  std::vector<double> latency_us;
  std::vector<double> untraced_us, traced_us;
  std::vector<std::vector<double>> query_us(queries.size());
  size_t quality_returned = 0, quality_fp = 0;
  uint64_t quality_msgs = 0, quality_bytes = 0, quality_traced = 0;
  uint64_t candidates = 0, finals = 0, traced_steps = 0;
  const size_t quality_steps = queries.size();  // the first pass
  auto t0 = Clock::now();
  size_t step = 0;
  for (;; ++step) {
    // Load k of the remaining ones is due at k / (kSetups - 1) of --seconds,
    // never inside the first pass; reloads stay off the measured clock.
    while (step >= quality_steps && setup_s.size() < kSetups &&
           SecondsSince(t0) >= args.seconds * static_cast<double>(setup_s.size()) /
                                   (kSetups - 1)) {
      const auto pause = Clock::now();
      reload();
      t0 += Clock::now() - pause;
    }
    if (step >= quality_steps && setup_s.size() == kSetups) break;
    const Query& q = queries[step % queries.size()];
    // Traced runs alternate untraced and traced steps; the parity flips on
    // every pass over the query list so no query is always on one side.
    const bool traced =
        args.trace && ((step + step / queries.size()) % 2 == 1);
    const auto s0 = Clock::now();
    const StepResult r = searcher->Step(q, traced ? tracer : untraced);
    const double us = MicrosSince(s0);
    latency_us.push_back(us);
    query_us[step % queries.size()].push_back(us);
    (traced ? traced_us : untraced_us).push_back(us);
    ++report.attempted;
    if (!r.ok) ++report.failed;
    if (step < quality_steps) {
      quality_returned += r.returned;
      quality_fp += r.false_positives;
      if (traced) {
        quality_msgs += r.traffic.msgs;
        quality_bytes += r.traffic.bytes;
        ++quality_traced;
      }
    }
    if (traced) {
      candidates += r.stats.candidate_index_records;
      finals += r.stats.rids_final;
      ++traced_steps;
    }
  }
  const double elapsed = SecondsSince(t0);
  core::EncryptedStore& store = *loaded.store;

  const double fp_ratio =
      quality_returned ? static_cast<double>(quality_fp) /
                             static_cast<double>(quality_returned)
                       : 0.0;
  std::vector<double> per_query_us;
  for (const std::vector<double>& v : query_us) per_query_us.push_back(Median(v));
  // One client, closed loop: a pass at typical speed takes the sum of the
  // per-query medians. The tail is p90, the highest percentile with ten or
  // more of the ~120 queries above it.
  const double search_per_s = PerSecond(per_query_us);
  const double p50_us = Median(per_query_us);
  const double p90_us = Percentile(per_query_us, 0.90);

  if (!args.trace) {
    report.end_to_end["setup_s"] = {Median(setup_s), "s"};
    report.end_to_end["peak_rss_mb"] = {SelfPeakRssMib(), "MiB"};
    report.end_to_end["ops_per_s"] = {search_per_s, "1/s"};
    report.end_to_end["latency_p50_us"] = {p50_us, "us"};
    report.end_to_end["latency_tail_us"] = {p90_us, "us"};
  } else {
    // Floor cost of a scan: fan-out, pool dispatch and replies, no matching.
    sdds::LhClient* scan_client = store.index_file().NewClient();
    for (int i = 0; i < 2; ++i) scan_client->Scan(loaded.empty_filter, {});
    std::vector<double> empty_ms;
    for (int i = 0; i < kEmptyScans; ++i) {
      const auto s0 = Clock::now();
      auto scan = scan_client->Scan(loaded.empty_filter, {});
      empty_ms.push_back(MicrosSince(s0) / 1e3);
      ++report.attempted;
      if (!scan.hits.empty()) ++report.failed;
    }
    // Matcher alone, single-threaded, on the first queries. Its hit count
    // must equal what the sites shipped back for the same query.
    std::vector<double> matcher_ms, matcher_rate;
    for (int i = 0; i < kMatcherPasses; ++i) {
      const Query& q = queries[static_cast<size_t>(i) % queries.size()];
      auto expected = store.SearchDetailed(q.text);
      ESSDDS_CHECK(expected.ok()) << expected.status();
      size_t records = 0;
      const auto s0 = Clock::now();
      const size_t hits = MatcherPass(store, q.text, &records);
      const double s = SecondsSince(s0);
      matcher_ms.push_back(1e3 * s);
      matcher_rate.push_back(static_cast<double>(records) / s);
      if (hits != expected->stats.candidate_index_records) {
        report.correct = false;
        report.facts["matcher_replay"] = "disagrees with the scan";
      }
    }
    auto& L = report.layers;
    L["core.query_build_us"] = {Median(tracer.Durations("core.query_build")), "us"};
    L["core.search_call_ms"] = {Median(tracer.Durations("core.search_call")) / 1e3, "ms"};
    L["core.fetch_ms"] = {Median(tracer.Durations("core.fetch")) / 1e3, "ms"};
    L["core.matcher_ms"] = {Median(matcher_ms), "ms"};
    L["core.matcher_records_per_s"] = {Median(matcher_rate), "1/s"};
    L["core.candidates_per_search"] = {
        traced_steps ? static_cast<double>(candidates) / traced_steps : 0.0,
        "count"};
    L["core.confirm_yield"] = {
        candidates ? static_cast<double>(finals) / candidates : 0.0, "ratio"};
    L["core.fp_ratio"] = {fp_ratio, "ratio"};
    L["sdds.scan_empty_ms"] = {Median(empty_ms), "ms"};
    L["sdds.msgs_per_search"] = {
        quality_traced ? static_cast<double>(quality_msgs) / quality_traced : 0.0,
        "count"};
    L["sdds.bytes_per_search"] = {
        quality_traced ? static_cast<double>(quality_bytes) / quality_traced
                       : 0.0,
        "bytes"};
    L["sdds.lookup_us"] = {Median(tracer.Durations("sdds.lookup")), "us"};
    L["crypto.open_us"] = {Median(tracer.Durations("crypto.open")), "us"};
    L["trace_overhead_pct"] = {
        TraceOverheadPct(PerSecond(untraced_us), PerSecond(traced_us)), "%"};
    tracer.WriteTsv(args.spans_path);

    // The write path's layers, from one traced durable ingest round
    // (ingest.cc) in the same run: seal, index build, splits, log appends,
    // checkpoints and parity deltas.
    Args probe = args;
    probe.scratch_dir += "/ingest";
    probe.spans_path += ".ingest.tsv";
    const Report ingest = RunIngest(probe);
    for (const auto& [name, metric] : ingest.layers) L[name] = metric;
    for (const auto& [name, metric] : ingest.detail) {
      report.detail["ingest." + name] = metric;
    }
    for (const auto& [name, fact] : ingest.facts) {
      report.facts["ingest." + name] = fact;
    }
    report.attempted += ingest.attempted;
    report.failed += ingest.failed;
    report.correct = report.correct && ingest.correct;
  }

  auto& D = report.detail;
  D["search_per_s"] = {search_per_s, "1/s"};
  D["search_p50_ms"] = {p50_us / 1e3, "ms"};
  D["search_p90_ms"] = {p90_us / 1e3, "ms"};
  D["search_per_s_whole_run"] = {static_cast<double>(step) / elapsed, "1/s"};
  D["search_p95_ms_whole_run"] = {Percentile(latency_us, 0.95) / 1e3, "ms"};
  D["passes"] = {static_cast<double>(step) / queries.size(), "count"};
  D["setup_loads"] = {static_cast<double>(setup_s.size()), "count"};
  D["setup_s_min"] = {*std::min_element(setup_s.begin(), setup_s.end()), "s"};
  D["setup_s_max"] = {*std::max_element(setup_s.begin(), setup_s.end()), "s"};
  D["fp_ratio"] = {fp_ratio, "ratio"};
  D["returned_rids"] = {static_cast<double>(quality_returned), "count"};
  D["queries"] = {static_cast<double>(queries.size()), "count"};
  D["queries_dropped_short"] = {static_cast<double>(dropped), "count"};
  D["searches"] = {static_cast<double>(step), "count"};
  D["index_records"] = {static_cast<double>(store.index_file().TotalRecords()),
                        "count"};
  D["index_buckets"] = {static_cast<double>(store.index_file().bucket_count()),
                        "count"};
  report.facts["tail_percentile"] = "p90 over per-query medians";
  return report;
}

}  // namespace essdds::perfbench
