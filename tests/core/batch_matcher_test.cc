// BatchMatcher battery: the bit-parallel matcher must agree with a naive
// O(n*m) reference on arbitrary random queries and streams — including
// byte-reduced alphabet collisions (values equal in their low byte but
// different above it, which fire the automaton and must be killed by
// verification), multi-group packing, patterns longer than a machine word
// (prefix automaton plus full verification), empty patterns, out-of-range
// families/sites, and the zero-dispersal-site clamp. Also pins the
// record-boundary property: a pattern straddling two records matches
// neither.

#include "core/batch_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/scheme_params.h"
#include "util/random.h"

namespace essdds::core {
namespace {

using OccurrenceSet = std::set<std::pair<uint32_t, size_t>>;

/// Values that collide in their low byte on purpose: the automaton sees
/// `value & 0xFF`, so streams drawn from this distribution are full of
/// candidate fires the exact verification must reject.
uint64_t CollidingValue(Rng& rng) {
  return rng.Uniform(3) | (rng.Uniform(4) << 8);
}

std::vector<uint64_t> RandomStream(Rng& rng, size_t len) {
  std::vector<uint64_t> v(len);
  for (auto& x : v) x = CollidingValue(rng);
  return v;
}

/// One random series: chunks (and pieces when k > 1) drawn from the
/// colliding distribution. Lengths mix empty, short, word-filling, and
/// longer-than-a-word patterns.
QuerySeries RandomSeries(Rng& rng, uint32_t sites) {
  QuerySeries s;
  s.alignment = static_cast<uint32_t>(rng.Uniform(4));
  size_t len;
  const uint64_t shape = rng.Uniform(10);
  if (shape == 0) {
    len = 0;  // empty pattern: must never match
  } else if (shape == 1) {
    len = 65 + rng.Uniform(16);  // past the word: prefix + full verify
  } else if (shape == 2) {
    len = 20 + rng.Uniform(45);  // large in-word: forces group splits
  } else {
    len = 1 + rng.Uniform(8);
  }
  s.chunks = RandomStream(rng, len);
  if (sites > 1) {
    s.pieces.resize(sites);
    for (auto& p : s.pieces) p = RandomStream(rng, len);
    s.chunks.clear();
  }
  return s;
}

SearchQuery RandomQuery(Rng& rng) {
  SearchQuery q;
  q.symbols_per_chunk = 4;
  q.chunking_stride = 1;
  const uint64_t mode = rng.Uniform(3);
  q.dispersal_sites = mode == 0 ? 1 : (mode == 1 ? 2 : 4);
  q.per_family = rng.Bernoulli(0.3);
  auto fill = [&](std::vector<QuerySeries>& list) {
    const size_t n = rng.Uniform(6);
    for (size_t i = 0; i < n; ++i) {
      list.push_back(RandomSeries(rng, q.dispersal_sites));
    }
  };
  if (q.per_family) {
    q.family_series.resize(1 + rng.Uniform(3));
    for (auto& list : q.family_series) fill(list);
  } else {
    fill(q.series);
  }
  return q;
}

/// Ground truth: the obvious scan of every series pattern, overlapping
/// occurrences included.
OccurrenceSet NaiveOccurrences(const SearchQuery& q, uint32_t family,
                               uint32_t site,
                               const std::vector<uint64_t>& stream) {
  OccurrenceSet out;
  if (site >= q.effective_sites()) return out;
  const std::vector<QuerySeries>* list = &q.series;
  if (q.per_family) {
    if (family >= q.family_series.size()) return out;
    list = &q.family_series[family];
  }
  for (const QuerySeries& s : *list) {
    const std::vector<uint64_t>& pattern = q.PatternFor(s, site);
    if (pattern.empty() || pattern.size() > stream.size()) continue;
    for (size_t i = 0; i + pattern.size() <= stream.size(); ++i) {
      if (std::equal(pattern.begin(), pattern.end(), stream.begin() + i)) {
        out.insert({s.alignment, i});
      }
    }
  }
  return out;
}

/// Random stream that, half the time, has one of the query's own patterns
/// spliced in at a random offset — otherwise hits would be vanishingly
/// rare for the longer patterns.
std::vector<uint64_t> StreamForQuery(Rng& rng, const SearchQuery& q,
                                     uint32_t family, uint32_t site) {
  std::vector<uint64_t> stream = RandomStream(rng, rng.Uniform(120));
  if (!rng.Bernoulli(0.5)) return stream;
  const std::vector<QuerySeries>* list = &q.series;
  if (q.per_family && family < q.family_series.size()) {
    list = &q.family_series[family];
  }
  if (list->empty() || site >= q.effective_sites()) return stream;
  const QuerySeries& s = (*list)[rng.Uniform(list->size())];
  const std::vector<uint64_t>& pattern = q.PatternFor(s, site);
  if (pattern.empty() || pattern.size() > stream.size()) return stream;
  const size_t at = rng.Uniform(stream.size() - pattern.size() + 1);
  std::copy(pattern.begin(), pattern.end(), stream.begin() + at);
  return stream;
}

TEST(BatchMatcherTest, AgreesWithCompiledQueryAndNaiveOnRandomInputs) {
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    const SearchQuery query = RandomQuery(rng);
    const BatchMatcher batch(&query);
    // Sweep coordinates past the valid range: out-of-range cells must
    // answer "no match", never crash.
    for (uint32_t family = 0; family < 4; ++family) {
      for (uint32_t site = 0; site < 6; ++site) {
        const std::vector<uint64_t> stream =
            StreamForQuery(rng, query, family, site);
        const OccurrenceSet expected =
            NaiveOccurrences(query, family, site, stream);
        EXPECT_EQ(batch.Matches(family, site, stream), !expected.empty())
            << "trial " << trial << " family " << family << " site " << site;
        OccurrenceSet batch_occ;
        batch.ForEachOccurrence(family, site, stream,
                                [&](uint32_t alignment, size_t c) {
                                  batch_occ.insert({alignment, c});
                                });
        EXPECT_EQ(batch_occ, expected)
            << "trial " << trial << " family " << family << " site " << site;
      }
    }
  }
}

TEST(BatchMatcherTest, ByteCollisionsDoNotFakeMatches) {
  // Two values with the same low byte are indistinguishable to the
  // automaton; only verification separates them. A stream of near-misses
  // (every value collides with the pattern's byte but differs above) must
  // not match.
  SearchQuery q;
  q.dispersal_sites = 1;
  QuerySeries s;
  s.alignment = 0;
  s.chunks = {0x0101, 0x0102, 0x0103};
  q.series.push_back(s);
  const BatchMatcher batch(&q);
  // Same low bytes 01/02/03, different high bytes.
  const std::vector<uint64_t> near{0x0201, 0x0202, 0x0203, 0x0301, 0x0302,
                                   0x0303};
  EXPECT_FALSE(batch.Matches(0, 0, near));
  const std::vector<uint64_t> exact{0x0201, 0x0101, 0x0102, 0x0103, 0x0303};
  EXPECT_TRUE(batch.Matches(0, 0, exact));
}

TEST(BatchMatcherTest, PatternStraddlingRecordBoundaryMatchesNeither) {
  // Index streams are matched per record: a pattern whose occurrence spans
  // the boundary between two adjacent records (adjacent in a bucket's
  // packed arena too) must match neither, even though the concatenation
  // contains it.
  SearchQuery q;
  q.dispersal_sites = 1;
  QuerySeries s;
  s.alignment = 0;
  s.chunks = {11, 22, 33, 44};
  q.series.push_back(s);
  const BatchMatcher batch(&q);
  const std::vector<uint64_t> first{5, 6, 11, 22};   // pattern head at tail
  const std::vector<uint64_t> second{33, 44, 7, 8};  // pattern tail at head
  EXPECT_FALSE(batch.Matches(0, 0, first));
  EXPECT_FALSE(batch.Matches(0, 0, second));
  std::vector<uint64_t> concat = first;
  concat.insert(concat.end(), second.begin(), second.end());
  EXPECT_TRUE(batch.Matches(0, 0, concat));  // the straddle is real...
  int occurrences = 0;
  batch.ForEachOccurrence(0, 0, first, [&](uint32_t, size_t) { ++occurrences; });
  batch.ForEachOccurrence(0, 0, second,
                          [&](uint32_t, size_t) { ++occurrences; });
  EXPECT_EQ(occurrences, 0);  // ...but belongs to no single record
}

TEST(BatchMatcherTest, ZeroSiteQueryUsesChunksLikeCompiledQuery) {
  // dispersal_sites == 0 cannot arrive off the wire (Deserialize rejects
  // it) but a hand-built query can carry it; the effective_sites() clamp
  // routes the matcher to the undispersed `chunks` stream instead of the
  // empty `pieces`.
  SearchQuery q;
  q.dispersal_sites = 0;
  QuerySeries s;
  s.alignment = 2;
  s.chunks = {9, 8, 7};
  q.series.push_back(s);
  ASSERT_EQ(q.effective_sites(), 1u);
  const BatchMatcher batch(&q);
  const std::vector<uint64_t> hit{1, 9, 8, 7, 2};
  const std::vector<uint64_t> miss{9, 8, 6};
  EXPECT_TRUE(batch.Matches(0, 0, hit));
  OccurrenceSet got;
  batch.ForEachOccurrence(0, 0, hit, [&](uint32_t a, size_t c) {
    got.insert({a, c});
  });
  EXPECT_EQ(got, (OccurrenceSet{{2, 1}}));
  EXPECT_EQ(got, NaiveOccurrences(q, 0, 0, hit));
  EXPECT_FALSE(batch.Matches(0, 0, miss));
  // Site 1 and above stay out of range under the clamp.
  EXPECT_FALSE(batch.Matches(0, 1, hit));
}

TEST(BatchMatcherTest, ZeroSiteWireQueryIsRejected) {
  // Regression: a wire image whose dispersal_sites field is patched to 0
  // (or past the plausibility cap) must fail Deserialize, not reach the
  // matchers.
  SearchQuery q;
  q.symbols_per_chunk = 4;
  q.chunking_stride = 1;
  q.dispersal_sites = 1;
  QuerySeries s;
  s.alignment = 0;
  s.chunks = {1, 2, 3};
  q.series.push_back(s);
  Bytes wire = q.Serialize();
  ASSERT_TRUE(SearchQuery::Deserialize(wire).ok());
  // dispersal_sites is the third u32 of the header.
  Bytes zero_sites = wire;
  zero_sites[8] = zero_sites[9] = zero_sites[10] = zero_sites[11] = 0;
  EXPECT_FALSE(SearchQuery::Deserialize(zero_sites).ok());
  Bytes oversized = wire;
  oversized[8] = 65;  // > kMaxWireDispersalSites
  oversized[9] = oversized[10] = oversized[11] = 0;
  EXPECT_FALSE(SearchQuery::Deserialize(oversized).ok());
}

TEST(BatchMatcherTest, ManySeriesPackAcrossMultipleGroups) {
  // 20 series of 8 values exceed two 64-bit words: packing must spill into
  // several automaton groups and still find a hit in any of them.
  Rng rng(42);
  SearchQuery q;
  q.dispersal_sites = 1;
  for (int i = 0; i < 20; ++i) {
    QuerySeries s;
    s.alignment = static_cast<uint32_t>(i);
    s.chunks = RandomStream(rng, 8);
    q.series.push_back(s);
  }
  const BatchMatcher batch(&q);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint64_t> stream = RandomStream(rng, 60);
    const size_t pick = rng.Uniform(q.series.size());
    const size_t at = rng.Uniform(stream.size() - 8 + 1);
    std::copy(q.series[pick].chunks.begin(), q.series[pick].chunks.end(),
              stream.begin() + at);
    EXPECT_TRUE(batch.Matches(0, 0, stream)) << "trial " << trial;
    OccurrenceSet batch_occ;
    batch.ForEachOccurrence(0, 0, stream, [&](uint32_t a, size_t c) {
      batch_occ.insert({a, c});
    });
    EXPECT_EQ(batch_occ, NaiveOccurrences(q, 0, 0, stream))
        << "trial " << trial;
    EXPECT_TRUE(batch_occ.count({static_cast<uint32_t>(pick), at}) > 0)
        << "trial " << trial;
  }
}


/// Builds a single-codebook query whose series carry the given chunk
/// patterns (dispersal off); series s has alignment s.
SearchQuery PlainQuery(std::vector<std::vector<uint64_t>> patterns) {
  SearchQuery q;
  q.symbols_per_chunk = 4;
  q.chunking_stride = 1;
  q.dispersal_sites = 1;
  q.query_symbols = 8;
  uint32_t alignment = 0;
  for (auto& p : patterns) {
    QuerySeries s;
    s.alignment = alignment++;
    s.chunks = std::move(p);
    q.series.push_back(std::move(s));
  }
  return q;
}

/// Alphabet of 2: self-overlapping patterns (AAAB, ABAB...) are the norm,
/// which is exactly where hand-rolled matchers go wrong.
std::vector<uint64_t> BinaryStream(Rng& rng, size_t len) {
  std::vector<uint64_t> v(len);
  for (auto& x : v) x = rng.Uniform(2);
  return v;
}

TEST(BatchMatcherTest, MatchesAgreesWithNaivePerSeries) {
  Rng rng(14);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::vector<uint64_t>> patterns;
    const size_t num_series = 1 + rng.Uniform(3);
    for (size_t s = 0; s < num_series; ++s) {
      patterns.push_back(BinaryStream(rng, 1 + rng.Uniform(4)));
    }
    const auto stream = BinaryStream(rng, rng.Uniform(30));
    const SearchQuery q = PlainQuery(patterns);
    const bool naive = !NaiveOccurrences(q, 0, 0, stream).empty();
    const BatchMatcher batch(&q);
    EXPECT_EQ(batch.Matches(0, 0, stream), naive) << "trial " << trial;
    // Without per-family series the program is shared by every family.
    EXPECT_EQ(batch.Matches(7, 0, stream), naive) << "trial " << trial;
  }
}

TEST(BatchMatcherTest, ForEachOccurrenceReportsEveryNaivePosition) {
  Rng rng(15);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::vector<uint64_t>> patterns;
    const size_t num_series = 1 + rng.Uniform(3);
    for (size_t s = 0; s < num_series; ++s) {
      patterns.push_back(BinaryStream(rng, 1 + rng.Uniform(4)));
    }
    const auto stream = BinaryStream(rng, rng.Uniform(30));
    const SearchQuery q = PlainQuery(patterns);
    const BatchMatcher batch(&q);
    OccurrenceSet got;
    batch.ForEachOccurrence(0, 0, stream, [&](uint32_t alignment, size_t c) {
      EXPECT_TRUE(got.insert({alignment, c}).second) << "duplicate report";
    });
    EXPECT_EQ(got, NaiveOccurrences(q, 0, 0, stream)) << "trial " << trial;
  }
}

TEST(BatchMatcherTest, DispersedQueryMatchesPerSite) {
  // k = 3: each series carries one piece stream per dispersal site, and a
  // site only ever sees (and must only ever match) its own stream.
  SearchQuery q;
  q.symbols_per_chunk = 4;
  q.chunking_stride = 2;
  q.dispersal_sites = 3;
  q.query_symbols = 8;
  QuerySeries s;
  s.alignment = 1;
  s.pieces = {{1, 2}, {3, 4}, {5, 6}};
  q.series.push_back(s);
  const BatchMatcher batch(&q);

  EXPECT_TRUE(batch.Matches(0, 0, std::vector<uint64_t>{9, 1, 2, 9}));
  EXPECT_FALSE(batch.Matches(0, 0, std::vector<uint64_t>{9, 3, 4, 9}));
  EXPECT_TRUE(batch.Matches(0, 1, std::vector<uint64_t>{3, 4}));
  EXPECT_TRUE(batch.Matches(0, 2, std::vector<uint64_t>{5, 6}));
  // A site index the query has no piece stream for cannot match.
  EXPECT_FALSE(batch.Matches(0, 3, std::vector<uint64_t>{1, 2}));
  EXPECT_FALSE(batch.Matches(0, 1000, std::vector<uint64_t>{1, 2}));
}

TEST(BatchMatcherTest, PerFamilyQueryIsolatesFamilies) {
  SearchQuery q;
  q.symbols_per_chunk = 4;
  q.chunking_stride = 1;
  q.dispersal_sites = 1;
  q.query_symbols = 8;
  q.per_family = true;
  QuerySeries f0, f1;
  f0.alignment = 0;
  f0.chunks = {10, 11};
  f1.alignment = 0;
  f1.chunks = {20, 21};
  q.family_series = {{f0}, {f1}};
  const BatchMatcher batch(&q);

  const std::vector<uint64_t> stream0 = {10, 11};
  const std::vector<uint64_t> stream1 = {20, 21};
  EXPECT_TRUE(batch.Matches(0, 0, stream0));
  EXPECT_FALSE(batch.Matches(0, 0, stream1));
  EXPECT_TRUE(batch.Matches(1, 0, stream1));
  EXPECT_FALSE(batch.Matches(1, 0, stream0));
  // A family beyond the query's series lists cannot match.
  EXPECT_FALSE(batch.Matches(2, 0, stream0));
  EXPECT_FALSE(batch.Matches(1000, 0, stream0));
}

TEST(BatchMatcherTest, FromWireEqualsDirectCompilation) {
  // The site filter compiles the deserialized wire query; it must answer
  // exactly as the client's matcher over the query it serialized.
  Rng rng(16);
  const SearchQuery direct = PlainQuery({RandomStream(rng, 3),
                                         RandomStream(rng, 2)});
  auto from_wire = SearchQuery::Deserialize(direct.Serialize());
  ASSERT_TRUE(from_wire.ok()) << from_wire.status().ToString();
  const BatchMatcher wire_batch(&*from_wire);
  const BatchMatcher direct_batch(&direct);
  for (int trial = 0; trial < 100; ++trial) {
    const auto stream = RandomStream(rng, rng.Uniform(20));
    EXPECT_EQ(wire_batch.Matches(0, 0, stream),
              direct_batch.Matches(0, 0, stream));
  }
}

TEST(BatchMatcherTest, EmptySeriesNeverMatch) {
  const SearchQuery q = PlainQuery({{}});
  const BatchMatcher batch(&q);
  EXPECT_FALSE(batch.Matches(0, 0, std::vector<uint64_t>{1, 2, 3}));
  EXPECT_FALSE(batch.Matches(0, 0, std::vector<uint64_t>{}));
}

/// A pattern of `len` distinct values, none equal to the filler value 0, so
/// every occurrence in a filler stream is one the test placed.
std::vector<uint64_t> LongPattern(size_t len) {
  std::vector<uint64_t> p(len);
  for (size_t i = 0; i < len; ++i) p[i] = 0x100 * (i + 1) + (i % 255) + 1;
  return p;
}

/// A heap buffer of exactly `values.size()` elements, so a read past the
/// stream's end is a heap overflow the address sanitizer reports (a
/// vector's spare capacity would hide it).
std::unique_ptr<uint64_t[]> ExactCopy(const std::vector<uint64_t>& values) {
  auto out = std::make_unique<uint64_t[]>(values.size());
  std::copy(values.begin(), values.end(), out.get());
  return out;
}

TEST(BatchMatcherTest, LongPatternFoundAtStartMiddleAndEnd) {
  // Past 64 values the automaton tracks only the first 64; the full
  // pattern is confirmed by the verify step.
  for (size_t len : {65u, 100u, 130u}) {
    const std::vector<uint64_t> pattern = LongPattern(len);
    const SearchQuery q = PlainQuery({pattern});
    const BatchMatcher batch(&q);
    const size_t size = len + 40;
    for (size_t at : {size_t{0}, size_t{17}, size - len}) {
      std::vector<uint64_t> stream(size, 0);
      std::copy(pattern.begin(), pattern.end(), stream.begin() + at);
      const auto exact = ExactCopy(stream);
      const std::span<const uint64_t> view(exact.get(), size);
      EXPECT_TRUE(batch.Matches(0, 0, view)) << "len " << len << " at " << at;
      OccurrenceSet got;
      batch.ForEachOccurrence(0, 0, view, [&](uint32_t a, size_t c) {
        got.insert({a, c});
      });
      EXPECT_EQ(got, (OccurrenceSet{{0, at}})) << "len " << len;
    }
  }
}

TEST(BatchMatcherTest, LongPatternPrefixAtStreamTailMatchesNothing) {
  // The 64-value prefix fires the automaton on the stream's last value, but
  // the rest of the pattern is cut off: the bounds check must reject it
  // before memcmp reads past the stream.
  const std::vector<uint64_t> pattern = LongPattern(100);
  const SearchQuery q = PlainQuery({pattern});
  const BatchMatcher batch(&q);
  for (size_t kept : {size_t{64}, size_t{99}}) {
    std::vector<uint64_t> stream(30, 0);
    stream.insert(stream.end(), pattern.begin(), pattern.begin() + kept);
    const auto exact = ExactCopy(stream);
    const std::span<const uint64_t> view(exact.get(), stream.size());
    EXPECT_FALSE(batch.Matches(0, 0, view)) << "kept " << kept;
    int reports = 0;
    batch.ForEachOccurrence(0, 0, view, [&](uint32_t, size_t) { ++reports; });
    EXPECT_EQ(reports, 0) << "kept " << kept;
  }
}

TEST(BatchMatcherTest, TwoLongPatternsEachTakeAGroup) {
  // Each long pattern's 64-value prefix fills a whole automaton word, so
  // the program runs two groups; both must report.
  std::vector<uint64_t> a = LongPattern(70);
  std::vector<uint64_t> b = LongPattern(90);
  for (uint64_t& v : b) v += 0x1000000;  // distinct from a, same low bytes
  const SearchQuery q = PlainQuery({a, b});
  const BatchMatcher batch(&q);
  std::vector<uint64_t> stream(5, 0);
  stream.insert(stream.end(), b.begin(), b.end());
  stream.insert(stream.end(), 3, 0);
  stream.insert(stream.end(), a.begin(), a.end());
  OccurrenceSet got;
  batch.ForEachOccurrence(0, 0, stream, [&](uint32_t al, size_t c) {
    got.insert({al, c});
  });
  EXPECT_EQ(got, (OccurrenceSet{{0, 5 + 90 + 3}, {1, 5}}));
  EXPECT_TRUE(batch.Matches(0, 0, stream));
}

/// Schemes whose stored stream values are 8, 16, 32, 12 and 3 bits wide.
/// Stage 2 (8 codes) gives the non-byte widths.
struct WidthCase {
  SchemeParams params;
  int bits;
};

std::vector<WidthCase> WidthCases() {
  return {
      {{.codes_per_chunk = 4, .dispersal_sites = 4}, 8},
      {{.codes_per_chunk = 4, .dispersal_sites = 2}, 16},
      {{.codes_per_chunk = 4}, 32},
      {{.num_codes = 8, .codes_per_chunk = 4}, 12},
      {{.num_codes = 8, .codes_per_chunk = 4, .dispersal_sites = 4}, 3},
  };
}

std::unique_ptr<IndexPipeline> PipelineFor(const WidthCase& c) {
  static const std::vector<std::string> corpus = {"SCHWARZ THOMAS",
                                                  "TSUI PETER", "LEE WEI"};
  auto pipe = IndexPipeline::Create(c.params, ToBytes("width test key"),
                                    corpus);
  EXPECT_TRUE(pipe.ok()) << pipe.status().ToString();
  EXPECT_EQ(pipe->stream_value_bits(), c.bits);
  return std::make_unique<IndexPipeline>(*std::move(pipe));
}

/// Keeps the low `bits` bits of every pattern value of half the series, so
/// some patterns fit the stored width (real hits) and the rest carry high
/// bits no stored value has (automaton fires the compare must reject).
void FitSomePatterns(Rng& rng, int bits, SearchQuery& q) {
  const uint64_t mask = bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  auto fit = [&](std::vector<QuerySeries>& list) {
    for (QuerySeries& s : list) {
      if (rng.Bernoulli(0.5)) continue;
      for (uint64_t& v : s.chunks) v &= mask;
      for (auto& piece : s.pieces) {
        for (uint64_t& v : piece) v &= mask;
      }
    }
  };
  fit(q.series);
  for (auto& list : q.family_series) fit(list);
}

TEST(BatchMatcherTest, StoredStreamsMatchInPlaceAtEveryWidth) {
  // The in-place path over SerializeStream's bytes must agree with the
  // decoded path over DeserializeStream's values and with the naive scan.
  for (const WidthCase& c : WidthCases()) {
    const auto pipe = PipelineFor(c);
    Rng rng(50 + static_cast<uint64_t>(c.bits));
    for (int trial = 0; trial < 150; ++trial) {
      SearchQuery query = RandomQuery(rng);
      FitSomePatterns(rng, c.bits, query);
      const BatchMatcher batch(&query);
      for (uint32_t family = 0; family < 3; ++family) {
        for (uint32_t site = 0; site < 5; ++site) {
          const Bytes payload =
              pipe->SerializeStream(StreamForQuery(rng, query, family, site));
          // Exactly sized, so a read past the stored stream is reported.
          const auto exact = std::make_unique<uint8_t[]>(payload.size());
          std::copy(payload.begin(), payload.end(), exact.get());
          const ByteSpan stored(exact.get(), payload.size());
          const auto decoded = pipe->DeserializeStream(stored);
          ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
          const auto view = pipe->StreamView(stored);
          ASSERT_TRUE(view.ok()) << view.status().ToString();
          ASSERT_EQ(view->size(), decoded->size());

          const OccurrenceSet expected =
              NaiveOccurrences(query, family, site, *decoded);
          OccurrenceSet in_place, from_decoded;
          batch.ForEachOccurrence(family, site, *view,
                                  [&](uint32_t a, size_t at) {
                                    in_place.insert({a, at});
                                  });
          batch.ForEachOccurrence(family, site, *decoded,
                                  [&](uint32_t a, size_t at) {
                                    from_decoded.insert({a, at});
                                  });
          EXPECT_EQ(in_place, expected) << "bits " << c.bits << " trial "
                                        << trial;
          EXPECT_EQ(from_decoded, expected) << "bits " << c.bits;
          EXPECT_EQ(batch.Matches(family, site, *view), !expected.empty())
              << "bits " << c.bits << " trial " << trial;
          EXPECT_EQ(batch.Matches(family, site, *decoded), !expected.empty());
        }
      }
    }
  }
}

TEST(BatchMatcherTest, WideQueryValuesNeverMatchByteStreams) {
  // An 8-bit stream is matched on its raw bytes. A query value of 256 or
  // more reduces to a byte the stream does hold, so the automaton fires;
  // no stored value can equal it, so nothing may match.
  const auto pipe = PipelineFor(WidthCases()[0]);
  ASSERT_EQ(pipe->stream_value_bits(), 8);
  const Bytes payload = pipe->SerializeStream({7, 0x41, 0x42, 0x43, 9});
  const auto view = pipe->StreamView(payload);
  ASSERT_TRUE(view.ok());
  const std::vector<std::vector<uint64_t>> wide_patterns = {
      {0x141, 0x42}, {0x41, 0x242, 0x43}, {0x41, 0x42, 0x10043}};
  for (const std::vector<uint64_t>& wide : wide_patterns) {
    const SearchQuery q = PlainQuery({wide});
    const BatchMatcher batch(&q);
    EXPECT_FALSE(batch.Matches(0, 0, *view));
    int reports = 0;
    batch.ForEachOccurrence(0, 0, *view, [&](uint32_t, size_t) { ++reports; });
    EXPECT_EQ(reports, 0);
  }
  const SearchQuery fits = PlainQuery({{0x41, 0x42, 0x43}});
  const BatchMatcher batch(&fits);
  EXPECT_TRUE(batch.Matches(0, 0, *view));
}

TEST(BatchMatcherTest, MalformedStoredStreamsFailLikeTheDecoder) {
  // StreamView is the decoder's own check: every payload it refuses, the
  // decoder refuses with the same Corruption (the client's search returns
  // it; the site filter treats it as no match), and every payload it
  // accepts decodes to the values the view reads.
  for (const WidthCase& c : WidthCases()) {
    const auto pipe = PipelineFor(c);
    const Bytes good = pipe->SerializeStream({1, 2, 3, 4, 5, 6, 7});
    std::vector<std::pair<Bytes, bool>> cases;  // payload, well-formed
    for (size_t n = 0; n < 4; ++n) {
      cases.push_back({Bytes(good.begin(), good.begin() + n), false});
    }
    cases.push_back({Bytes(good.begin(), good.end() - 1), false});
    Bytes overcount = good;
    overcount[3] = static_cast<uint8_t>(overcount[3] + 8);  // count past end
    cases.push_back({overcount, false});
    Bytes huge = good;
    huge[0] = huge[1] = huge[2] = huge[3] = 0xFF;
    cases.push_back({huge, false});
    Bytes trailing = good;
    trailing.insert(trailing.end(), {0xAA, 0xBB, 0xCC});
    cases.push_back({trailing, true});  // the decoder ignores the tail
    cases.push_back({good, true});
    const SearchQuery q = PlainQuery({{2, 3}});
    const BatchMatcher batch(&q);
    for (const auto& [payload, well_formed] : cases) {
      const auto view = pipe->StreamView(payload);
      const auto decoded = pipe->DeserializeStream(payload);
      ASSERT_EQ(view.ok(), well_formed)
          << "bits " << c.bits << " size " << payload.size();
      ASSERT_EQ(decoded.ok(), well_formed);
      if (!well_formed) {
        EXPECT_TRUE(view.status().IsCorruption()) << view.status().ToString();
        EXPECT_EQ(decoded.status().ToString(), view.status().ToString());
        continue;
      }
      ASSERT_EQ(view->size(), decoded->size());
      for (size_t i = 0; i < view->size(); ++i) {
        EXPECT_EQ((*view)[i], (*decoded)[i]);
      }
      EXPECT_EQ(batch.Matches(0, 0, *view), batch.Matches(0, 0, *decoded));
      EXPECT_TRUE(batch.Matches(0, 0, *view)) << "bits " << c.bits;
    }
  }
}

}  // namespace
}  // namespace essdds::core
