#include "core/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace essdds::core {
namespace {

using U64 = std::vector<uint64_t>;

TEST(MatcherTest, FindsSingleOccurrence) {
  U64 stream = {1, 2, 3, 4, 5};
  U64 pattern = {3, 4};
  EXPECT_EQ(FindOccurrences(stream, pattern), (std::vector<size_t>{2}));
}

TEST(MatcherTest, FindsMultipleAndOverlapping) {
  U64 stream = {7, 7, 7, 7};
  U64 pattern = {7, 7};
  EXPECT_EQ(FindOccurrences(stream, pattern), (std::vector<size_t>{0, 1, 2}));
}

TEST(MatcherTest, NoMatch) {
  U64 stream = {1, 2, 3};
  U64 pattern = {2, 1};
  EXPECT_TRUE(FindOccurrences(stream, pattern).empty());
}

TEST(MatcherTest, PatternLongerThanStream) {
  U64 stream = {1, 2};
  U64 pattern = {1, 2, 3};
  EXPECT_TRUE(FindOccurrences(stream, pattern).empty());
}

TEST(MatcherTest, EmptyPatternMatchesNothing) {
  U64 stream = {1, 2, 3};
  U64 pattern = {};
  EXPECT_TRUE(FindOccurrences(stream, pattern).empty());
}

TEST(MatcherTest, EmptyStream) {
  U64 stream = {};
  U64 pattern = {1};
  EXPECT_TRUE(FindOccurrences(stream, pattern).empty());
}

TEST(MatcherTest, FullStreamMatch) {
  U64 v = {9, 8, 7};
  EXPECT_EQ(FindOccurrences(v, v), (std::vector<size_t>{0}));
}

TEST(MatcherTest, PeriodicPatternKmpCorrectness) {
  // Classic KMP trap: pattern with repeated prefix.
  U64 stream = {1, 1, 2, 1, 1, 1, 2};
  U64 pattern = {1, 1, 2};
  EXPECT_EQ(FindOccurrences(stream, pattern), (std::vector<size_t>{0, 4}));
}

TEST(MatcherTest, MatchesNaiveSearchOnRandomInputs) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.Uniform(60);
    const size_t m = 1 + rng.Uniform(6);
    U64 stream(n), pattern(m);
    // Small alphabet to force many matches.
    for (auto& v : stream) v = rng.Uniform(3);
    for (auto& v : pattern) v = rng.Uniform(3);

    std::vector<size_t> naive;
    for (size_t i = 0; i + m <= n; ++i) {
      bool ok = true;
      for (size_t j = 0; j < m; ++j) {
        if (stream[i + j] != pattern[j]) {
          ok = false;
          break;
        }
      }
      if (ok) naive.push_back(i);
    }
    EXPECT_EQ(FindOccurrences(stream, pattern), naive)
        << "trial " << trial;
  }
}

TEST(KmpTest, FindOccurrencesAgreesWithNaiveMatcher) {
  Rng rng(13);
  auto random_values = [&](size_t len) {
    U64 v(len);
    for (auto& x : v) x = rng.Uniform(3);
    return v;
  };
  for (int trial = 0; trial < 500; ++trial) {
    const U64 stream = random_values(rng.Uniform(60));
    // Mix random patterns with substrings of the stream (guaranteed hits).
    U64 pattern;
    if (rng.Bernoulli(0.5) && stream.size() >= 2) {
      const size_t len = 1 + rng.Uniform(std::min<size_t>(stream.size(), 5));
      const size_t at = rng.Uniform(stream.size() - len + 1);
      pattern.assign(stream.begin() + at, stream.begin() + at + len);
    } else {
      pattern = random_values(1 + rng.Uniform(5));
    }
    std::vector<size_t> naive;
    for (size_t i = 0; i + pattern.size() <= stream.size(); ++i) {
      if (std::equal(pattern.begin(), pattern.end(), stream.begin() + i)) {
        naive.push_back(i);
      }
    }
    EXPECT_EQ(FindOccurrences(stream, pattern), naive) << "trial " << trial;
  }
}

TEST(MatcherTest, Uint32Overload) {
  std::vector<uint32_t> stream = {5, 6, 5, 6, 5};
  std::vector<uint32_t> pattern = {5, 6, 5};
  EXPECT_EQ(FindOccurrences(stream, pattern), (std::vector<size_t>{0, 2}));
}

}  // namespace
}  // namespace essdds::core
