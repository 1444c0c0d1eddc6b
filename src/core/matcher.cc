#include "core/matcher.h"

namespace essdds::core {

namespace {

template <typename T>
std::vector<size_t> FindOccurrencesImpl(std::span<const T> stream,
                                        std::span<const T> pattern) {
  std::vector<size_t> hits;
  if (pattern.empty() || stream.size() < pattern.size()) return hits;

  // KMP failure function.
  std::vector<size_t> fail(pattern.size(), 0);
  for (size_t i = 1, k = 0; i < pattern.size(); ++i) {
    while (k > 0 && pattern[i] != pattern[k]) k = fail[k - 1];
    if (pattern[i] == pattern[k]) ++k;
    fail[i] = k;
  }

  for (size_t i = 0, k = 0; i < stream.size(); ++i) {
    while (k > 0 && stream[i] != pattern[k]) k = fail[k - 1];
    if (stream[i] == pattern[k]) ++k;
    if (k == pattern.size()) {
      hits.push_back(i + 1 - pattern.size());
      k = fail[k - 1];
    }
  }
  return hits;
}

}  // namespace

std::vector<size_t> FindOccurrences(std::span<const uint64_t> stream,
                                    std::span<const uint64_t> pattern) {
  return FindOccurrencesImpl(stream, pattern);
}

std::vector<size_t> FindOccurrences(std::span<const uint32_t> stream,
                                    std::span<const uint32_t> pattern) {
  return FindOccurrencesImpl(stream, pattern);
}

}  // namespace essdds::core
