// Per-layer self time from the program's virtual-time spans. An OpTracer
// installed around one client call collects that call's closed spans in
// completion order (children before parents); a span's self time is its
// duration minus the part of its interval that its direct children cover.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_us = 0;  // sum of span durations
  int64_t self_us = 0;   // sum of self times
};

/// Adds each span of one traced operation to `totals` under its name.
void AccumulateSelfTimes(const std::vector<logbase::obs::SpanRecord>& spans,
                         std::map<std::string, SpanTotals>* totals);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
