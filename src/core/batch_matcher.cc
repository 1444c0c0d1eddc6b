#include "core/batch_matcher.h"

namespace essdds::core {

BatchMatcher::BatchMatcher(const SearchQuery* query) : query_(query) {
  ESSDDS_CHECK(query != nullptr);
  // A zero-site query matches the undispersed `chunks` stream; wire queries
  // additionally have dispersal_sites >= 1 enforced at Deserialize.
  sites_ = query_->effective_sites();
  if (query_->per_family) {
    family_groups_ = query_->family_series.empty()
                         ? 1
                         : query_->family_series.size();
  } else {
    family_groups_ = 1;
  }
  programs_.reserve(family_groups_ * sites_);
  static const std::vector<QuerySeries> kNoSeries;
  for (size_t fg = 0; fg < family_groups_; ++fg) {
    const std::vector<QuerySeries>& list =
        !query_->per_family ? query_->series
        : fg < query_->family_series.size() ? query_->family_series[fg]
                                            : kNoSeries;
    for (uint32_t d = 0; d < sites_; ++d) {
      programs_.push_back(
          CompileProgram(*query_, list, static_cast<uint32_t>(d)));
    }
  }
}

BatchMatcher::Program BatchMatcher::CompileProgram(
    const SearchQuery& q, const std::vector<QuerySeries>& list,
    uint32_t site) {
  Program prog;
  prog.patterns.reserve(list.size());
  prog.min_len = SIZE_MAX;
  for (const QuerySeries& s : list) {
    const std::vector<uint64_t>& values = q.PatternFor(s, site);
    if (values.empty()) continue;  // empty patterns never match
    Pattern pattern{s.alignment, values, {}};
    if (std::all_of(values.begin(), values.end(),
                    [](uint64_t v) { return v < 256; })) {
      pattern.bytes.assign(values.begin(), values.end());
    }
    prog.patterns.push_back(std::move(pattern));
    prog.min_len = std::min(prog.min_len, values.size());
  }
  // Pack pattern prefixes greedily into Shift-And groups: first-fit in
  // pattern order, a group closes when the next prefix would not fit its
  // remaining bits.
  size_t used = 64;  // bits consumed in the currently open group
  for (uint32_t id = 0; id < prog.patterns.size(); ++id) {
    const std::span<const uint64_t> head = prog.patterns[id].values.first(
        std::min<size_t>(prog.patterns[id].values.size(), 64));
    if (used + head.size() > 64) {
      prog.groups.emplace_back();
      used = 0;
    }
    Group& g = prog.groups.back();
    const size_t last = used + head.size() - 1;
    g.initial |= uint64_t{1} << used;
    g.final |= uint64_t{1} << last;
    g.pattern_of_bit[last] = id;
    for (size_t c = 0; c < head.size(); ++c) {
      g.masks[static_cast<uint8_t>(head[c])] |= uint64_t{1} << (used + c);
    }
    used += head.size();
  }
  return prog;
}

}  // namespace essdds::core
