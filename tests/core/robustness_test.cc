// Robustness and failure-injection tests: malformed wire bytes must never
// crash or be misinterpreted, and the paper's §2.3 short-query expansion
// must stay complete.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/encrypted_store.h"
#include "core/pipeline.h"
#include "sdds/rs_code.h"
#include "tests/util/fuzz_util.h"
#include "util/random.h"
#include "workload/phonebook.h"

namespace essdds::core {
namespace {

std::unique_ptr<EncryptedStore> MakeStore(SchemeParams params) {
  EncryptedStore::Options opts;
  opts.params = params;
  auto store = EncryptedStore::Create(opts, ToBytes("robustness"), {});
  EXPECT_TRUE(store.ok());
  return *std::move(store);
}

constexpr char kNameAlphabet[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ &'-";

TEST(ExpansionSearchTest, FindsOccurrencesOneBelowMinimum) {
  auto store = MakeStore(SchemeParams{});  // s=4, min query 4
  ASSERT_TRUE(store->Insert(1, "SCHWARZ THOMAS").ok());
  ASSERT_TRUE(store->Insert(2, "WONG MING").ok());
  // "ONG" is 3 symbols — below the minimum; plain Search refuses.
  EXPECT_FALSE(store->Search("ONG").ok());
  auto rids = store->SearchWithExpansion("ONG", kNameAlphabet);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, (std::vector<uint64_t>{2}));
}

TEST(ExpansionSearchTest, CoversOccurrenceAtRecordEnd) {
  auto store = MakeStore(SchemeParams{});
  ASSERT_TRUE(store->Insert(1, "ABCDEFG").ok());
  // "EFG" occurs only at the very end: right-extension alone would miss it;
  // the left extension ("DEFG") finds it.
  auto rids = store->SearchWithExpansion("EFG", kNameAlphabet);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, (std::vector<uint64_t>{1}));
}

TEST(ExpansionSearchTest, CoversOccurrenceAtRecordStart) {
  auto store = MakeStore(SchemeParams{});
  ASSERT_TRUE(store->Insert(1, "ABCDEFG").ok());
  auto rids = store->SearchWithExpansion("ABC", kNameAlphabet);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, (std::vector<uint64_t>{1}));
}

TEST(ExpansionSearchTest, RejectsTooShortOrEmptyAlphabet) {
  auto store = MakeStore(SchemeParams{});
  EXPECT_FALSE(store->SearchWithExpansion("AB", kNameAlphabet).ok());
  EXPECT_FALSE(store->SearchWithExpansion("ABC", "").ok());
}

TEST(ExpansionSearchTest, FullLengthQueryPassesThrough) {
  auto store = MakeStore(SchemeParams{});
  ASSERT_TRUE(store->Insert(1, "SCHWARZ").ok());
  auto rids = store->SearchWithExpansion("SCHW", kNameAlphabet);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, (std::vector<uint64_t>{1}));
}

TEST(ExpansionSearchTest, NoFalseNegativesOverCorpus) {
  auto store = MakeStore(SchemeParams{});
  workload::PhonebookGenerator gen(88);
  auto corpus = gen.Generate(100);
  for (const auto& r : corpus) ASSERT_TRUE(store->Insert(r.rid, r.name).ok());
  int checked = 0;
  for (const auto& r : corpus) {
    if (r.name.size() < 3) continue;
    const std::string fragment = r.name.substr(0, 3);  // min - 1 symbols
    auto rids = store->SearchWithExpansion(fragment, kNameAlphabet);
    ASSERT_TRUE(rids.ok());
    EXPECT_TRUE(std::binary_search(rids->begin(), rids->end(), r.rid))
        << fragment;
    ++checked;
  }
  EXPECT_GT(checked, 90);
}

// --- deserializer fuzzing: random bytes must produce errors, not UB ---

TEST(FuzzTest, SearchQueryDeserializeSurvivesRandomBytes) {
  test::RandomBytesTrials(1, 2000, 200, [](ByteSpan junk) {
    auto q = SearchQuery::Deserialize(junk);  // must not crash
    if (q.ok()) {
      // If it parsed, the invariants must hold.
      EXPECT_GT(q->dispersal_sites, 0u);
      EXPECT_LE(q->series.size(), 1024u);
    }
  });
}

TEST(FuzzTest, SearchQueryDeserializeSurvivesTruncation) {
  SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = 4};
  auto pipe = IndexPipeline::Create(p, ToBytes("fuzz"), {});
  auto q = pipe->BuildQuery("ABCDEFGHIJ");
  Bytes wire = q->Serialize();
  test::TruncationSweep(wire, [](ByteSpan prefix, size_t len) {
    auto parsed = SearchQuery::Deserialize(prefix);
    EXPECT_FALSE(parsed.ok()) << "truncation at " << len << " parsed";
  });
  // Full length parses.
  EXPECT_TRUE(SearchQuery::Deserialize(wire).ok());
}

TEST(FuzzTest, SearchQueryDeserializeSurvivesSingleByteMutations) {
  SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = 4};
  auto pipe = IndexPipeline::Create(p, ToBytes("fuzz"), {});
  auto q = pipe->BuildQuery("ABCDEFGHIJ");
  const Bytes wire = q->Serialize();
  test::SingleByteMutations(4, wire, [](ByteSpan mutated, size_t) {
    auto parsed = SearchQuery::Deserialize(mutated);  // must not crash
    if (parsed.ok()) {
      EXPECT_GT(parsed->dispersal_sites, 0u);
      EXPECT_LE(parsed->dispersal_sites, 64u);
    }
  });
}

TEST(FuzzTest, StreamDeserializeSurvivesRandomBytes) {
  SchemeParams p{.codes_per_chunk = 4};
  auto pipe = IndexPipeline::Create(p, ToBytes("fuzz"), {});
  test::RandomBytesTrials(2, 2000, 64, [&](ByteSpan junk) {
    (void)pipe->DeserializeStream(junk);  // must not crash
  });
}

TEST(FuzzTest, StreamDeserializeSurvivesTruncationAndMutation) {
  SchemeParams p{.codes_per_chunk = 4};
  auto pipe = IndexPipeline::Create(p, ToBytes("fuzz"), {});
  const Bytes wire = pipe->SerializeStream({1, 2, 3, 0xFFFF, 42});
  EXPECT_TRUE(pipe->DeserializeStream(wire).ok());
  test::TruncationSweep(wire, [&](ByteSpan prefix, size_t) {
    (void)pipe->DeserializeStream(prefix);  // must not crash
  });
  test::SingleByteMutations(5, wire, [&](ByteSpan mutated, size_t) {
    (void)pipe->DeserializeStream(mutated);  // must not crash
  });
}

TEST(FuzzTest, RecordBlockDeserializeSurvivesRandomBytes) {
  test::RandomBytesTrials(3, 2000, 100, [](ByteSpan junk) {
    (void)sdds::DeserializeRecords(junk);  // must not crash
  });
}

TEST(FuzzTest, RecordBlockDeserializeSurvivesTruncation) {
  const Bytes wire = sdds::SerializeRecords(
      {{1, ToBytes("SCHWARZ")}, {2, ToBytes("TSUI")}, {3, {}}});
  test::TruncationSweep(wire, [](ByteSpan prefix, size_t len) {
    auto parsed = sdds::DeserializeRecords(prefix);
    EXPECT_FALSE(parsed.ok()) << "truncation at " << len << " parsed";
  });
  auto full = sdds::DeserializeRecords(wire);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 3u);
}

TEST(FuzzTest, RecordBlockDeserializeSurvivesSingleByteMutations) {
  const Bytes wire = sdds::SerializeRecords(
      {{1, ToBytes("SCHWARZ")}, {2, ToBytes("TSUI")}, {3, {}}});
  test::SingleByteMutations(6, wire, [](ByteSpan mutated, size_t) {
    auto parsed = sdds::DeserializeRecords(mutated);  // must not crash
    if (parsed.ok()) {
      EXPECT_LE(parsed->size(), 3u + 255u);  // a mutated count stays bounded
    }
  });
}

TEST(FuzzTest, RecordBlockRejectsHugeClaimedCountWithoutAllocating) {
  // count = 0xFFFFFFFF over a 12-byte payload: must fail closed as
  // Corruption before any reserve; with a count that big a reserve would
  // demand tens of gigabytes and throw bad_alloc.
  Bytes evil = {0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8};
  auto parsed = sdds::DeserializeRecords(evil);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
}

TEST(FuzzTest, RecordBlockToleratesZeroPaddedTail) {
  // RS parity groups pad blocks to the group maximum; the zero tail after
  // the last record must stay parseable (the recovery path relies on it).
  Bytes wire = sdds::SerializeRecords({{9, ToBytes("PADDED")}});
  wire.resize(wire.size() + 64, 0);
  auto parsed = sdds::DeserializeRecords(wire);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].first, 9u);
}

// --- failure injection at the storage layer ---

TEST(FailureInjectionTest, CorruptIndexPayloadIsIgnoredNotFatal) {
  auto store = MakeStore(SchemeParams{});
  ASSERT_TRUE(store->Insert(1, "SCHWARZ THOMAS").ok());
  ASSERT_TRUE(store->Insert(2, "WONG MING").ok());
  // Vandalize every index record of rid 1 with garbage, written straight
  // into the sites by a raw LH* client.
  auto& index = store->index_file();
  std::vector<uint64_t> victims;
  for (uint64_t b = 0; b < index.bucket_count(); ++b) {
    for (const auto& [key, value] : index.bucket(b).records()) {
      if ((key >> store->params().subid_bits) == 1) victims.push_back(key);
    }
  }
  ASSERT_FALSE(victims.empty());
  sdds::LhClient* vandal = index.NewClient();
  for (uint64_t key : victims) vandal->Insert(key, Bytes{0xDE, 0xAD});
  // Site-side matching skips the corrupt records; rid 2 is still found and
  // the search does not crash. (rid 1 becomes unfindable — data loss at a
  // site is an availability problem, handled by the RS extension.)
  auto rids = store->Search("WONG");
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, (std::vector<uint64_t>{2}));
}

TEST(FailureInjectionTest, CorruptSealedRecordFailsClosed) {
  auto store = MakeStore(SchemeParams{});
  ASSERT_TRUE(store->Insert(1, "SCHWARZ THOMAS").ok());
  auto& file = store->record_file();
  std::map<uint64_t, Bytes> sealed;
  for (uint64_t b = 0; b < file.bucket_count(); ++b) {
    sealed.merge(file.bucket(b).records());
  }
  sdds::LhClient* vandal = file.NewClient();
  for (auto& [key, value] : sealed) {
    value[value.size() / 2] ^= 0x80;
    vandal->Insert(key, value);
  }
  auto got = store->Get(1);
  EXPECT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption());
}

}  // namespace
}  // namespace essdds::core
