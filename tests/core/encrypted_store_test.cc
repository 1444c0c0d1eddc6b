#include "core/encrypted_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "util/random.h"
#include "workload/phonebook.h"

namespace essdds::core {
namespace {

Bytes Master() { return ToBytes("store test master"); }

std::unique_ptr<EncryptedStore> MakeStore(
    SchemeParams params, std::span<const std::string> corpus = {}) {
  EncryptedStore::Options opts;
  opts.params = params;
  opts.record_file.bucket_capacity = 16;
  opts.index_file.bucket_capacity = 32;
  auto store = EncryptedStore::Create(opts, Master(), corpus);
  EXPECT_TRUE(store.ok()) << store.status();
  return *std::move(store);
}

TEST(EncryptedStoreTest, InsertGetRoundTrip) {
  auto store = MakeStore(SchemeParams{});
  ASSERT_TRUE(store->Insert(7, "SCHWARZ THOMAS").ok());
  auto got = store->Get(7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "SCHWARZ THOMAS");
}

TEST(EncryptedStoreTest, GetMissingIsNotFound) {
  auto store = MakeStore(SchemeParams{});
  EXPECT_TRUE(store->Get(99).status().IsNotFound());
}

TEST(EncryptedStoreTest, RecordStoreHoldsOnlyCiphertext) {
  auto store = MakeStore(SchemeParams{});
  const std::string content = "HIGHLY CONFIDENTIAL SUBSCRIBER";
  ASSERT_TRUE(store->Insert(1, content).ok());
  // Walk every bucket of the record file: plaintext must not appear.
  for (uint64_t b = 0; b < store->record_file().bucket_count(); ++b) {
    for (const auto& [key, value] : store->record_file().bucket(b).records()) {
      const std::string blob(value.begin(), value.end());
      EXPECT_EQ(blob.find("CONFIDENTIAL"), std::string::npos);
    }
  }
}

TEST(EncryptedStoreTest, SearchFindsExactOccurrence) {
  auto store = MakeStore(SchemeParams{});
  ASSERT_TRUE(store->Insert(1, "SCHWARZ THOMAS").ok());
  ASSERT_TRUE(store->Insert(2, "TSUI PETER").ok());
  ASSERT_TRUE(store->Insert(3, "LITWIN WITOLD").ok());
  auto rids = store->Search("SCHWARZ");
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, (std::vector<uint64_t>{1}));
}

TEST(EncryptedStoreTest, SearchAtEveryOffsetOfTheRecord) {
  auto store = MakeStore(SchemeParams{});
  const std::string content = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  ASSERT_TRUE(store->Insert(5, content).ok());
  for (size_t start = 0; start + 6 <= content.size(); ++start) {
    auto rids = store->Search(content.substr(start, 6));
    ASSERT_TRUE(rids.ok()) << "start " << start;
    EXPECT_EQ(*rids, (std::vector<uint64_t>{5})) << "start " << start;
  }
}

TEST(EncryptedStoreTest, SearchRespectsMinimumLength) {
  auto store = MakeStore(SchemeParams{});  // s=4, stride 1 -> min 4
  ASSERT_TRUE(store->Insert(1, "ABCDEFGH").ok());
  EXPECT_FALSE(store->Search("ABC").ok());
  EXPECT_TRUE(store->Search("ABCD").ok());
}

TEST(EncryptedStoreTest, NoHitsForAbsentString) {
  auto store = MakeStore(SchemeParams{});
  ASSERT_TRUE(store->Insert(1, "SCHWARZ THOMAS").ok());
  auto rids = store->Search("QQQQQQQ");
  ASSERT_TRUE(rids.ok());
  EXPECT_TRUE(rids->empty());
}

TEST(EncryptedStoreTest, DeleteRemovesRecordAndIndex) {
  auto store = MakeStore(SchemeParams{});
  ASSERT_TRUE(store->Insert(1, "SCHWARZ THOMAS").ok());
  ASSERT_TRUE(store->Delete(1).ok());
  EXPECT_TRUE(store->Get(1).status().IsNotFound());
  auto rids = store->Search("SCHWARZ");
  ASSERT_TRUE(rids.ok());
  EXPECT_TRUE(rids->empty());
  EXPECT_EQ(store->index_file().TotalRecords(), 0u);
  EXPECT_TRUE(store->Delete(1).IsNotFound());
}

TEST(EncryptedStoreTest, ReinsertReplacesContent) {
  auto store = MakeStore(SchemeParams{});
  ASSERT_TRUE(store->Insert(1, "SCHWARZ THOMAS").ok());
  ASSERT_TRUE(store->Insert(1, "WONG MING AND ASSOCIATES").ok());
  EXPECT_EQ(*store->Get(1), "WONG MING AND ASSOCIATES");
  auto old_hit = store->Search("SCHWARZ");
  ASSERT_TRUE(old_hit.ok());
  EXPECT_TRUE(old_hit->empty());
  auto new_hit = store->Search("WONG MING");
  ASSERT_TRUE(new_hit.ok());
  EXPECT_EQ(*new_hit, (std::vector<uint64_t>{1}));
}

TEST(EncryptedStoreTest, IndexSitesNeverSeePlaintext) {
  SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = 4};
  auto store = MakeStore(p);
  ASSERT_TRUE(store->Insert(1, "AAAABBBBCCCCDDDD").ok());
  // No index bucket value may contain 4 consecutive plaintext bytes.
  for (uint64_t b = 0; b < store->index_file().bucket_count(); ++b) {
    for (const auto& [key, value] : store->index_file().bucket(b).records()) {
      const std::string blob(value.begin(), value.end());
      EXPECT_EQ(blob.find("AAAA"), std::string::npos);
      EXPECT_EQ(blob.find("BBBB"), std::string::npos);
    }
  }
}

struct StoreConfig {
  std::string name;
  SchemeParams params;
};

// Prints the config's label, so test names do not depend on where the
// name string happens to live in memory.
void PrintTo(const StoreConfig& c, std::ostream* os) { *os << c.name; }

class EncryptedStoreConfigTest : public ::testing::TestWithParam<StoreConfig> {
};

INSTANTIATE_TEST_SUITE_P(
    Configs, EncryptedStoreConfigTest,
    ::testing::Values(
        StoreConfig{"stage1_only", SchemeParams{}},
        StoreConfig{"stage1_dispersed",
                    SchemeParams{.codes_per_chunk = 4, .dispersal_sites = 4}},
        StoreConfig{"paper_conclusion",
                    SchemeParams{.codes_per_chunk = 6, .dispersal_sites = 3}},
        StoreConfig{"reduced_storage",
                    SchemeParams{.codes_per_chunk = 8, .chunking_stride = 2}},
        StoreConfig{"stage2",
                    SchemeParams{.num_codes = 32, .codes_per_chunk = 4}},
        StoreConfig{"stage2_dispersed",
                    SchemeParams{.num_codes = 16,
                                 .codes_per_chunk = 4,
                                 .dispersal_sites = 2}},
        StoreConfig{"all_expected_mode",
                    SchemeParams{.codes_per_chunk = 4,
                                 .dispersal_sites = 4,
                                 .combination =
                                     CombinationMode::kAllExpectedChunkings}}),
    [](const auto& param_info) { return param_info.param.name; });

// The core correctness property across all configurations: NO FALSE
// NEGATIVES. Every true occurrence of length >= min_query_symbols is found.
TEST_P(EncryptedStoreConfigTest, NeverMissesTrueOccurrences) {
  workload::PhonebookGenerator gen(321);
  auto corpus = gen.Generate(120);
  std::vector<std::string> training;
  for (const auto& r : corpus) training.push_back(r.name);

  auto store = MakeStore(GetParam().params, training);
  for (const auto& r : corpus) {
    ASSERT_TRUE(store->Insert(r.rid, r.name).ok());
  }

  const size_t min_len = store->params().min_query_symbols();
  Rng rng(99);
  int checked = 0;
  for (const auto& r : corpus) {
    if (r.name.size() < min_len) continue;
    // Random substring of the record, at least min_len long.
    const size_t max_extra = r.name.size() - min_len;
    const size_t len = min_len + rng.Uniform(max_extra + 1);
    const size_t start = rng.Uniform(r.name.size() - len + 1);
    const std::string needle = r.name.substr(start, len);

    auto rids = store->Search(needle);
    ASSERT_TRUE(rids.ok());
    EXPECT_TRUE(std::binary_search(rids->begin(), rids->end(), r.rid))
        << "missed '" << needle << "' in '" << r.name << "' ("
        << GetParam().name << ")";
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

// And every reported rid whose content we fetch must be explainable: with
// Stage 2 off, a hit must contain at least one chunk-aligned fragment of
// the query (sanity bound on false positives).
TEST_P(EncryptedStoreConfigTest, HitsAreChunkExplainable) {
  if (GetParam().params.stage2_enabled()) GTEST_SKIP();
  workload::PhonebookGenerator gen(654);
  auto corpus = gen.Generate(100);
  std::vector<std::string> training;
  for (const auto& r : corpus) training.push_back(r.name);
  auto store = MakeStore(GetParam().params, training);
  for (const auto& r : corpus) ASSERT_TRUE(store->Insert(r.rid, r.name).ok());

  auto sample = workload::SampleRecords(corpus, 30, 7);
  const size_t min_len = store->params().min_query_symbols();
  for (const auto* rec : sample) {
    std::string needle(workload::SurnameOf(*rec));
    if (needle.size() < min_len) continue;
    auto outcome = store->SearchDetailed(needle);
    ASSERT_TRUE(outcome.ok());
    for (uint64_t rid : outcome->rids) {
      auto content = store->Get(rid);
      ASSERT_TRUE(content.ok());
      // Without lossy compression a hit requires at least one full chunk of
      // the query to appear verbatim in the content.
      const int s = store->params().symbols_per_chunk();
      bool explainable = false;
      for (size_t a = 0; !explainable && a + s <= needle.size(); ++a) {
        explainable = content->find(needle.substr(a, s)) != std::string::npos;
      }
      EXPECT_TRUE(explainable)
          << "unexplainable hit rid=" << rid << " content='" << *content
          << "' query='" << needle << "'";
    }
  }
}

TEST(EncryptedStoreTest, DispersalAndReducesFalsePositives) {
  // A candidate that matches on one dispersal site but not all k must be
  // rejected. We engineer this indirectly: with tiny 2-bit pieces, single-
  // site matches are frequent, so candidates >> confirmed.
  SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = 4};
  workload::PhonebookGenerator gen(11);
  auto corpus = gen.Generate(300);
  auto store = MakeStore(p);
  for (const auto& r : corpus) ASSERT_TRUE(store->Insert(r.rid, r.name).ok());
  auto outcome = store->SearchDetailed("ZZZZYYYY");
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->rids.empty());
}

TEST(EncryptedStoreTest, AllExpectedModeIsSubsetOfAnyMode) {
  workload::PhonebookGenerator gen(22);
  auto corpus = gen.Generate(200);
  std::vector<std::string> training;
  for (const auto& r : corpus) training.push_back(r.name);

  SchemeParams any_mode{.num_codes = 8, .codes_per_chunk = 2};
  SchemeParams all_mode = any_mode;
  all_mode.combination = CombinationMode::kAllExpectedChunkings;

  auto store_any = MakeStore(any_mode, training);
  auto store_all = MakeStore(all_mode, training);
  for (const auto& r : corpus) {
    ASSERT_TRUE(store_any->Insert(r.rid, r.name).ok());
    ASSERT_TRUE(store_all->Insert(r.rid, r.name).ok());
  }
  auto sample = workload::SampleRecords(corpus, 40, 3);
  for (const auto* rec : sample) {
    // The surname occurs at position 0 of the record's own name.
    std::string needle(workload::SurnameOf(*rec));
    if (needle.size() < store_any->params().min_query_symbols()) continue;
    auto any_hits = store_any->Search(needle);
    auto all_hits = store_all->Search(needle);
    ASSERT_TRUE(any_hits.ok() && all_hits.ok());
    // all_mode hits are a subset of any_mode hits.
    EXPECT_TRUE(std::includes(any_hits->begin(), any_hits->end(),
                              all_hits->begin(), all_hits->end()))
        << needle;
    // And the true record is in both.
    EXPECT_TRUE(std::binary_search(all_hits->begin(), all_hits->end(),
                                   rec->rid))
        << needle;
  }
}

TEST(EncryptedStoreTest, SearchStatsAreConsistent) {
  auto store = MakeStore(SchemeParams{});
  workload::PhonebookGenerator gen(33);
  for (const auto& r : gen.Generate(150)) {
    ASSERT_TRUE(store->Insert(r.rid, r.name).ok());
  }
  auto outcome = store->SearchDetailed("WONG");
  ASSERT_TRUE(outcome.ok());
  const auto& st = outcome->stats;
  EXPECT_GE(st.candidate_index_records, st.families_confirmed);
  EXPECT_GE(st.families_confirmed, st.rids_candidates);
  EXPECT_GE(st.rids_candidates, st.rids_final);
  EXPECT_EQ(st.rids_final, outcome->rids.size());
  EXPECT_GT(st.rids_final, 0u);
}

TEST(EncryptedStoreTest, ScalesAcrossManyBucketsAndStaysSearchable) {
  SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = 2};
  workload::PhonebookGenerator gen(44);
  auto corpus = gen.Generate(400);
  auto store = MakeStore(p);
  for (const auto& r : corpus) ASSERT_TRUE(store->Insert(r.rid, r.name).ok());
  // The index file must have split well beyond one bucket.
  EXPECT_GT(store->index_file().bucket_count(), 8u);
  // And search still works for an arbitrary record.
  const auto& target = corpus[123];
  auto rids = store->Search(target.name);
  ASSERT_TRUE(rids.ok());
  EXPECT_TRUE(std::binary_search(rids->begin(), rids->end(), target.rid));
}

TEST(EncryptedStoreTest, RejectsOversizedRid) {
  auto store = MakeStore(SchemeParams{});  // subid_bits = 8
  EXPECT_FALSE(store->Insert(~uint64_t{0}, "X").ok());
}

TEST(EncryptedStoreTest, ParallelIndexScanMatchesSerialOnPhonebook) {
  // The full scheme with thread-pool index scans must be indistinguishable
  // from the serial build: same rids, same per-stage stats, same network
  // accounting. This is the workload the paper evaluates.
  auto run = [](size_t scan_threads) {
    SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = 2};
    EncryptedStore::Options opts;
    opts.params = p;
    opts.record_file.bucket_capacity = 16;
    opts.index_file.bucket_capacity = 32;
    opts.index_file.scan_threads = scan_threads;
    auto store = EncryptedStore::Create(opts, Master(), {});
    EXPECT_TRUE(store.ok()) << store.status();

    workload::PhonebookGenerator gen(77);
    auto corpus = gen.Generate(300);
    for (const auto& r : corpus) {
      EXPECT_TRUE((*store)->Insert(r.rid, r.name).ok());
    }
    (*store)->index_file().network().ResetStats();

    struct Outcome {
      std::vector<uint64_t> rids;
      EncryptedStore::SearchStats stats;
      sdds::NetworkStats net;
    } out;
    for (const char* q : {"SCHWARZ", "MARIA", "ER J", "ZZZZQQ"}) {
      auto found = (*store)->SearchDetailed(q);
      EXPECT_TRUE(found.ok()) << q;
      out.rids.insert(out.rids.end(), found->rids.begin(), found->rids.end());
      out.stats.candidate_index_records +=
          found->stats.candidate_index_records;
      out.stats.families_confirmed += found->stats.families_confirmed;
      out.stats.rids_final += found->stats.rids_final;
    }
    out.net = (*store)->index_file().network().stats();
    return out;
  };

  const auto serial = run(0);
  const auto parallel = run(4);
  EXPECT_EQ(serial.rids, parallel.rids);
  EXPECT_EQ(serial.stats.candidate_index_records,
            parallel.stats.candidate_index_records);
  EXPECT_EQ(serial.stats.families_confirmed,
            parallel.stats.families_confirmed);
  EXPECT_EQ(serial.stats.rids_final, parallel.stats.rids_final);
  EXPECT_EQ(serial.net, parallel.net);
  EXPECT_GT(serial.stats.rids_final, 0u) << "queries matched nothing";
}

TEST(EncryptedStoreTest, SiteFilterRejectsGarbageQueries) {
  // The index sites' filter (the only one the store installs) must refuse
  // to compile bytes that are not a wire query, and a scan carrying such
  // bytes must answer from every bucket with no hits, serial or pooled.
  const Bytes garbage = ToBytes("not a query");
  for (size_t scan_threads : {size_t{0}, size_t{2}}) {
    EncryptedStore::Options opts;
    opts.params = SchemeParams{.codes_per_chunk = 4, .dispersal_sites = 2};
    opts.record_file.bucket_capacity = 16;
    opts.index_file.bucket_capacity = 32;
    opts.index_file.scan_threads = scan_threads;
    auto store = EncryptedStore::Create(opts, Master(), {});
    ASSERT_TRUE(store.ok()) << store.status();
    workload::PhonebookGenerator gen(78);
    for (const auto& r : gen.Generate(60)) {
      ASSERT_TRUE((*store)->Insert(r.rid, r.name).ok());
    }
    sdds::LhSystem& index = (*store)->index_file();
    ASSERT_GT(index.bucket_count(), 1u);

    const sdds::ScanFilter& filter = index.FilterById(0);
    EXPECT_EQ(filter.Prepare(garbage), nullptr);
    EXPECT_EQ(filter.Prepare({}), nullptr);
    auto query = (*store)->pipeline().BuildQuery("SCHWARZ");
    ASSERT_TRUE(query.ok()) << query.status();
    EXPECT_NE(filter.Prepare(query->Serialize()), nullptr);

    sdds::LhClient* client = index.NewClient();
    for (const Bytes& arg : {garbage, Bytes{}}) {
      const sdds::ScanResult scan = client->Scan(0, arg);
      EXPECT_TRUE(scan.hits.empty()) << "scan_threads " << scan_threads;
      EXPECT_EQ(scan.buckets_answered, index.bucket_count())
          << "scan_threads " << scan_threads;
    }
  }
}

TEST(EncryptedStoreTest, MalformedIndexRecordsMatchNothingAtTheSite) {
  // The site filter reads stored streams in place. A payload the stream
  // decoder refuses (short header, count past the end, cut value) is no
  // match, and a search over it stays OK and simply loses that record;
  // trailing bytes the decoder ignores do not stop a match.
  for (int k : {4, 2}) {  // 8- and 16-bit stored values
    auto store = MakeStore(SchemeParams{.codes_per_chunk = 4,
                                        .dispersal_sites = k});
    ASSERT_TRUE(store->Insert(1, "SCHWARZ THOMAS").ok());
    ASSERT_TRUE(store->Insert(2, "SCHWARZ PETER").ok());
    sdds::LhSystem& index = store->index_file();
    auto query = store->pipeline().BuildQuery("SCHWARZ");
    ASSERT_TRUE(query.ok()) << query.status();
    const auto prepared = index.FilterById(0).Prepare(query->Serialize());
    ASSERT_NE(prepared, nullptr);

    // The index records of rid 1, and one of them that matches.
    std::vector<std::pair<uint64_t, Bytes>> rid1;
    uint64_t key = 0;
    Bytes good;
    for (uint64_t b = 0; b < index.bucket_count(); ++b) {
      for (const auto& [record_key, value] : index.bucket(b).records()) {
        uint64_t rid;
        uint32_t family, site;
        ParseIndexKey(record_key, store->params(), &rid, &family, &site);
        if (rid != 1) continue;
        rid1.emplace_back(record_key, value);
        if (good.empty() && prepared->Matches(record_key, value)) {
          key = record_key;
          good = value;
        }
      }
    }
    ASSERT_FALSE(good.empty()) << "k " << k;

    Bytes trailing = good;
    trailing.push_back(0x5A);
    EXPECT_TRUE(prepared->Matches(key, trailing)) << "k " << k;
    Bytes overcount = good;
    overcount[3] = static_cast<uint8_t>(overcount[3] + 1);
    const std::vector<Bytes> malformed = {
        Bytes(good.begin(), good.begin() + 3), overcount,
        Bytes(good.begin(), good.end() - 1)};
    for (const Bytes& bad : malformed) {
      EXPECT_FALSE(store->pipeline().DeserializeStream(bad).ok());
      EXPECT_FALSE(prepared->Matches(key, bad))
          << "k " << k << " size " << bad.size();
    }

    // Every index record of rid 1 turned malformed: no family can match.
    sdds::LhClient* client = index.NewClient();
    for (auto& [record_key, value] : rid1) {
      value[3] = static_cast<uint8_t>(value[3] + 1);  // count past the end
      client->Insert(record_key, value);
    }
    auto rids = store->Search("SCHWARZ");
    ASSERT_TRUE(rids.ok()) << rids.status();
    EXPECT_EQ(*rids, (std::vector<uint64_t>{2})) << "k " << k;
  }
}

TEST(EncryptedStoreTest, PooledIndexScanThreadSweepMatchesSerial) {
  // Full-scheme leg of the thread-count sweep: whatever the pool size,
  // pooled index scans must reproduce the serial build exactly — rids,
  // per-stage stats, and network accounting.
  auto run = [](size_t scan_threads) {
    SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = 2};
    EncryptedStore::Options opts;
    opts.params = p;
    opts.record_file.bucket_capacity = 16;
    opts.index_file.bucket_capacity = 32;
    opts.index_file.scan_threads = scan_threads;
    auto store = EncryptedStore::Create(opts, Master(), {});
    EXPECT_TRUE(store.ok()) << store.status();

    workload::PhonebookGenerator gen(77);
    auto corpus = gen.Generate(300);
    for (const auto& r : corpus) {
      EXPECT_TRUE((*store)->Insert(r.rid, r.name).ok());
    }
    (*store)->index_file().network().ResetStats();

    struct Outcome {
      std::vector<uint64_t> rids;
      EncryptedStore::SearchStats stats;
      sdds::NetworkStats net;
    } out;
    for (const char* q : {"SCHWARZ", "MARIA", "ER J", "ZZZZQQ"}) {
      auto found = (*store)->SearchDetailed(q);
      EXPECT_TRUE(found.ok()) << q;
      out.rids.insert(out.rids.end(), found->rids.begin(), found->rids.end());
      out.stats.candidate_index_records +=
          found->stats.candidate_index_records;
      out.stats.families_confirmed += found->stats.families_confirmed;
      out.stats.rids_final += found->stats.rids_final;
    }
    out.net = (*store)->index_file().network().stats();
    return out;
  };

  const auto serial = run(0);
  EXPECT_GT(serial.stats.rids_final, 0u) << "queries matched nothing";
  for (size_t scan_threads : {size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("scan_threads " + std::to_string(scan_threads));
    const auto pooled = run(scan_threads);
    EXPECT_EQ(serial.rids, pooled.rids);
    EXPECT_EQ(serial.stats.candidate_index_records,
              pooled.stats.candidate_index_records);
    EXPECT_EQ(serial.stats.families_confirmed,
              pooled.stats.families_confirmed);
    EXPECT_EQ(serial.stats.rids_final, pooled.stats.rids_final);
    EXPECT_EQ(serial.net, pooled.net);
  }
}

TEST(EncryptedStoreTest, SearchMessageTrafficIsBounded) {
  auto store = MakeStore(SchemeParams{});
  workload::PhonebookGenerator gen(55);
  for (const auto& r : gen.Generate(200)) {
    ASSERT_TRUE(store->Insert(r.rid, r.name).ok());
  }
  store->index_file().network().ResetStats();
  ASSERT_TRUE(store->Search("SCHWARZ").ok());
  const auto& st = store->index_file().network().stats();
  // One scan message per bucket (plus forwarding) and one reply per bucket.
  const uint64_t buckets = store->index_file().bucket_count();
  EXPECT_LE(st.total_messages, 3 * buckets);
  EXPECT_GE(st.total_messages, 2 * buckets);
}

}  // namespace
}  // namespace essdds::core
