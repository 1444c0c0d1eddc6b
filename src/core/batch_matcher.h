#ifndef ESSDDS_CORE_BATCH_MATCHER_H_
#define ESSDDS_CORE_BATCH_MATCHER_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "util/bitstream.h"
#include "util/bytes.h"
#include "util/logging.h"

namespace essdds::core {

/// The compiled form of a SearchQuery: its per-(family, dispersal site)
/// pattern sets packed into multi-pattern Shift-And automata. One pass over
/// a stream advances every pattern of a (family, site) program at once;
/// `FindOccurrences` (core/matcher.h) is the naive reference it must agree
/// with.
///
/// Streams come in two forms with one group loop between them: decoded
/// (`std::span<const uint64_t>`) or stored (`PackedValues`, the index
/// record's payload read in place by IndexPipeline::StreamView, nothing
/// decoded). A stored stream of 8-bit values is read as its bytes directly;
/// other widths read each value with a word-at-a-time load.
///
/// Construction: the first min(len, 64) values of every non-empty pattern
/// are concatenated into as few 64-bit Shift-And groups as first-fit
/// packing allows, so a pattern longer than 64 values takes a whole group.
/// A group tracks one state word over a byte-reduced alphabet
/// (`value & 0xFF`), which makes it a superset recognizer: a fired final
/// bit is only a candidate, confirmed by one bounds-checked compare of the
/// *full* pattern against the stream before it is reported. Over 8-bit
/// streams the alphabet is exact and the compare is a memcmp of bytes.
///
/// Semantics: empty patterns never match, out-of-range families and sites
/// never match, and ForEachOccurrence reports every occurrence of every
/// series pattern exactly once (occurrence *order* is unspecified; the
/// position-confirmation consumer intersects sets and never depends on it).
///
/// The matcher borrows the query: `query` must outlive it (patterns
/// reference its chunk/piece buffers).
class BatchMatcher {
 public:
  explicit BatchMatcher(const SearchQuery* query);

  BatchMatcher(BatchMatcher&&) = default;
  BatchMatcher& operator=(BatchMatcher&&) = default;
  BatchMatcher(const BatchMatcher&) = delete;
  BatchMatcher& operator=(const BatchMatcher&) = delete;

  const SearchQuery& query() const { return *query_; }

  /// True when any query series matches the index stream of (family, site).
  /// Defined inline: this is the per-record call of the columnar scan loop,
  /// where call overhead is on the order of the match itself for short
  /// piece streams.
  bool Matches(uint32_t family, uint32_t site,
               std::span<const uint64_t> stream) const {
    return MatchesIn(family, site, stream);
  }
  bool Matches(uint32_t family, uint32_t site,
               const PackedValues& stream) const {
    return stream.bits() == 8 ? MatchesIn(family, site, BytesOf(stream))
                              : MatchesIn(family, site, stream);
  }

  /// Invokes fn(series_alignment, chunk_index) for every occurrence of
  /// every series pattern of (family, site) in `stream`; order unspecified.
  template <typename Fn>
  void ForEachOccurrence(uint32_t family, uint32_t site,
                         std::span<const uint64_t> stream, Fn&& fn) const {
    ForEachIn(family, site, stream, fn);
  }
  template <typename Fn>
  void ForEachOccurrence(uint32_t family, uint32_t site,
                         const PackedValues& stream, Fn&& fn) const {
    if (stream.bits() == 8) {
      ForEachIn(family, site, BytesOf(stream), fn);
    } else {
      ForEachIn(family, site, stream, fn);
    }
  }

 private:
  struct Pattern {
    uint32_t alignment = 0;
    std::span<const uint64_t> values;  // into query_'s chunk/piece buffers
    /// `values` narrowed to bytes, for 8-bit streams; empty when some value
    /// is >= 256, which no 8-bit stream holds.
    Bytes bytes;
  };

  /// One Shift-And word: up to 64 pattern-prefix positions concatenated.
  /// Bit b of the state word means "some pattern's prefix ending at
  /// position b matched the stream suffix ending here" — under the
  /// byte-reduced alphabet, so a set final bit is a candidate, not a match.
  struct Group {
    std::array<uint64_t, 256> masks{};  // masks[byte]: positions whose
                                        // pattern value reduces to `byte`
    uint64_t initial = 0;               // bit at each pattern's position 0
    uint64_t final = 0;                 // bit at each prefix's last position
    std::array<uint32_t, 64> pattern_of_bit{};  // final bit -> pattern index
  };

  /// All patterns one (family group, site) cell must match.
  struct Program {
    std::vector<Pattern> patterns;  // non-empty patterns only
    std::vector<Group> groups;
    size_t min_len = 0;  // shortest pattern: early-out bound
  };

  /// The values of an 8-bit stored stream: its bytes, one per value.
  static ByteSpan BytesOf(const PackedValues& stream) {
    return stream.data().first(stream.size());
  }

  /// Full-pattern confirmation at `start`, one per stream form; the caller
  /// has checked that the pattern fits the stream from there.
  static bool Equal(const Pattern& p, std::span<const uint64_t> stream,
                    size_t start) {
    return std::memcmp(stream.data() + start, p.values.data(),
                       p.values.size() * sizeof(uint64_t)) == 0;
  }
  static bool Equal(const Pattern& p, ByteSpan stream, size_t start) {
    return !p.bytes.empty() &&
           std::memcmp(stream.data() + start, p.bytes.data(),
                       p.bytes.size()) == 0;
  }
  static bool Equal(const Pattern& p, const PackedValues& stream,
                    size_t start) {
    for (size_t j = 0; j < p.values.size(); ++j) {
      if (stream[start + j] != p.values[j]) return false;
    }
    return true;
  }

  /// The program of (family, site), or nullptr when that cell cannot match
  /// (family/site out of range, or no non-empty patterns).
  const Program* ProgramFor(uint32_t family, uint32_t site) const {
    if (site >= sites_) return nullptr;
    const size_t fg = query_->per_family ? family : 0;
    if (fg >= family_groups_) return nullptr;
    const Program& prog = programs_[fg * sites_ + site];
    return prog.patterns.empty() ? nullptr : &prog;
  }

  template <typename Stream>
  bool MatchesIn(uint32_t family, uint32_t site, const Stream& stream) const {
    const Program* prog = ProgramFor(family, site);
    return prog != nullptr && stream.size() >= prog->min_len &&
           RunGroups(*prog, stream, [](const Pattern&, size_t) {
             return false;  // the first occurrence settles it
           });
  }

  template <typename Stream, typename Fn>
  void ForEachIn(uint32_t family, uint32_t site, const Stream& stream,
                 Fn& fn) const {
    const Program* prog = ProgramFor(family, site);
    if (prog == nullptr || stream.size() < prog->min_len) return;
    RunGroups(*prog, stream, [&](const Pattern& p, size_t start) {
      fn(p.alignment, start);
      return true;  // keep scanning: report every occurrence
    });
  }

  /// Runs every automaton group of `prog` over the stream and calls
  /// fn(pattern, start) on each verified occurrence. fn returns false to
  /// stop; RunGroups returns true exactly when fn stopped it.
  template <typename Stream, typename Fn>
  static bool RunGroups(const Program& prog, const Stream& stream, Fn&& fn) {
    for (const Group& g : prog.groups) {
      uint64_t state = 0;
      for (size_t i = 0; i < stream.size(); ++i) {
        state = ((state << 1) | g.initial) &
                g.masks[static_cast<uint8_t>(stream[i])];
        uint64_t fired = state & g.final;
        while (fired != 0) [[unlikely]] {
          const int bit = std::countr_zero(fired);
          fired &= fired - 1;
          const Pattern& p =
              prog.patterns[g.pattern_of_bit[static_cast<size_t>(bit)]];
          // The group saw at most the first 64 values; the full pattern
          // must still fit the stream before Equal reads it.
          const size_t len = p.values.size();
          const size_t start = i + 1 - std::min<size_t>(len, 64);
          if (start + len <= stream.size() && Equal(p, stream, start) &&
              !fn(p, start)) {
            return true;
          }
        }
      }
    }
    return false;
  }

  static Program CompileProgram(const SearchQuery& q,
                                const std::vector<QuerySeries>& list,
                                uint32_t site);

  const SearchQuery* query_;
  size_t sites_ = 1;          // == query_->effective_sites()
  size_t family_groups_ = 1;  // 1 unless per_family
  /// programs_[fg * sites_ + site].
  std::vector<Program> programs_;
};

}  // namespace essdds::core

#endif  // ESSDDS_CORE_BATCH_MATCHER_H_
