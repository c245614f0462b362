#include "perfbench/src/spans.h"

#include <algorithm>

namespace perfbench {

namespace {

using Interval = std::pair<int64_t, int64_t>;

// Length of the union of `children` clipped to [begin, end]. Children of a
// scatter/gather span run on overlapping child clocks, so they may overlap.
int64_t CoveredUs(int64_t begin, int64_t end, std::vector<Interval> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = begin;
  for (const auto& [b, e] : children) {
    int64_t lo = std::max(b, cursor);
    int64_t hi = std::min(e, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

}  // namespace

void AccumulateSelfTimes(const std::vector<logbase::obs::SpanRecord>& spans,
                         std::map<std::string, SpanTotals>* totals) {
  // Closed spans not yet claimed by a parent. When a span at depth d
  // closes, every pending span deeper than d closed inside it; the ones at
  // d+1 are its direct children (deeper ones were claimed by those).
  std::vector<const logbase::obs::SpanRecord*> pending;
  for (const logbase::obs::SpanRecord& span : spans) {
    std::vector<Interval> children;
    while (!pending.empty() && pending.back()->depth > span.depth) {
      if (pending.back()->depth == span.depth + 1) {
        children.emplace_back(pending.back()->begin_us, pending.back()->end_us);
      }
      pending.pop_back();
    }
    SpanTotals& t = (*totals)[span.name];
    t.count++;
    t.total_us += span.elapsed_us();
    t.self_us += span.elapsed_us() -
                 CoveredUs(span.begin_us, span.end_us, std::move(children));
    pending.push_back(&span);
  }
}

}  // namespace perfbench
