#ifndef ESSDDS_CORE_MATCHER_H_
#define ESSDDS_CORE_MATCHER_H_

#include <cstdint>
#include <span>
#include <vector>

namespace essdds::core {

/// Finds every start index at which `pattern` occurs as a consecutive
/// subsequence of `stream` (Knuth-Morris-Pratt over chunk/piece values).
/// This is the operation every index site runs against every index record:
/// matching consecutive encrypted chunks (§2.3). It is the reference
/// oracle; scans run the compiled form, core::BatchMatcher.
std::vector<size_t> FindOccurrences(std::span<const uint64_t> stream,
                                    std::span<const uint64_t> pattern);

/// Overload for dispersal-piece streams.
std::vector<size_t> FindOccurrences(std::span<const uint32_t> stream,
                                    std::span<const uint32_t> pattern);

}  // namespace essdds::core

#endif  // ESSDDS_CORE_MATCHER_H_
