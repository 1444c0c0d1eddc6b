// Cross-cutting key-separation and determinism properties: every secret in
// the system derives from one master key, derivations must be independent,
// and two stores built from the same (key, params, corpus) must be
// bit-identical — the property that lets a client rebuild its view from the
// secret alone.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "crypto/key_chain.h"
#include "util/bytes.h"

namespace essdds::crypto {
namespace {

TEST(KeySeparationTest, ChunkKeysPairwiseDistinct) {
  KeyChain kc(ToBytes("master"));
  // Hex strings, not Bytes: GCC 12 reports a false -Wstringop-overread on
  // the inlined std::set<std::vector<uint8_t>> comparison.
  std::set<std::string> keys;
  for (uint32_t f = 0; f < 64; ++f) {
    EXPECT_TRUE(keys.insert(HexEncode(kc.ChunkKey(f))).second) << f;
  }
  EXPECT_FALSE(keys.contains(HexEncode(kc.RecordKey())));
}

TEST(KeySeparationTest, RecordKeyIndependentOfChunkKeys) {
  // Flipping the purpose label must change everything about the output.
  Bytes master = ToBytes("master");
  Bytes a = DeriveKey(master, "essdds/record", 32);
  Bytes b = DeriveKey(master, "essdds/chunk/0", 32);
  int equal_bytes = 0;
  for (size_t i = 0; i < a.size(); ++i) equal_bytes += (a[i] == b[i]);
  EXPECT_LT(equal_bytes, 8);  // ~1/256 per byte expected
}

TEST(KeySeparationTest, PipelinesFromSameSecretAreIdentical) {
  core::SchemeParams p{.num_codes = 16,
                       .codes_per_chunk = 4,
                       .dispersal_sites = 2};
  std::vector<std::string> corpus = {"SCHWARZ THOMAS", "WONG MING",
                                     "LITWIN WITOLD", "GARCIA MARIA"};
  auto a = core::IndexPipeline::Create(p, ToBytes("one secret"), corpus);
  auto b = core::IndexPipeline::Create(p, ToBytes("one secret"), corpus);
  ASSERT_TRUE(a.ok() && b.ok());
  for (const auto& name : corpus) {
    auto ra = a->BuildIndexRecords(1, name);
    auto rb = b->BuildIndexRecords(1, name);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].stream, rb[i].stream) << name << " rec " << i;
    }
    auto qa = a->BuildQuery(name);
    auto qb = b->BuildQuery(name);
    ASSERT_TRUE(qa.ok() && qb.ok());
    EXPECT_EQ(qa->Serialize(), qb->Serialize());
  }
}

TEST(KeySeparationTest, DifferentSecretsShareNothingVisible) {
  core::SchemeParams p{.codes_per_chunk = 4};
  auto a = core::IndexPipeline::Create(p, ToBytes("secret-a"), {});
  auto b = core::IndexPipeline::Create(p, ToBytes("secret-b"), {});
  auto ra = a->BuildIndexRecords(1, "ABCDEFGHIJKLMNOP");
  auto rb = b->BuildIndexRecords(1, "ABCDEFGHIJKLMNOP");
  size_t coincidences = 0, total = 0;
  for (size_t i = 0; i < ra.size(); ++i) {
    for (size_t c = 0; c < ra[i].stream.size(); ++c) {
      ++total;
      coincidences += (ra[i].stream[c] == rb[i].stream[c]);
    }
  }
  EXPECT_GT(total, 10u);
  EXPECT_EQ(coincidences, 0u);  // 2^-32 per chunk; 0 expected here
}

TEST(KeySeparationTest, QueriesUnderWrongKeyFindNothing) {
  // A trapdoor built under the wrong master key matches essentially no
  // index record of the right store: search capability is key-bound.
  core::SchemeParams p{.codes_per_chunk = 4};
  auto right = core::IndexPipeline::Create(p, ToBytes("right"), {});
  auto wrong = core::IndexPipeline::Create(p, ToBytes("wrong"), {});
  auto recs = right->BuildIndexRecords(1, "SCHWARZ THOMAS");
  auto bad_query = wrong->BuildQuery("SCHWARZ");
  ASSERT_TRUE(bad_query.ok());
  // Compare the wrong query's chunks against the right store's streams.
  size_t matches = 0;
  for (const auto& rec : recs) {
    for (const auto& series : bad_query->series) {
      for (uint64_t qc : series.chunks) {
        for (uint64_t sc : rec.stream) matches += (qc == sc);
      }
    }
  }
  EXPECT_EQ(matches, 0u);
}

}  // namespace
}  // namespace essdds::crypto
