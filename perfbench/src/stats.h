// Latency summaries under the ten-samples-beyond rule: a percentile is
// reported only when at least ten samples lie above its rank, so a p99
// needs 1000 samples. Percentiles use the nearest-rank definition on the
// exact samples (no histogram bucketing), so virtual-time results repeat
// bit for bit.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples strictly above the nearest-rank position of percentile `p`
/// (0 < p < 100) among `n` samples.
uint64_t SamplesBeyond(uint64_t n, double p);
/// True when `n` samples support percentile `p` (ten or more beyond it).
bool Supports(uint64_t n, double p);
/// The highest of 99/95/90/50 that `n` samples support; 0 if none.
double HighestSupported(uint64_t n);

/// Nearest-rank percentile of `samples` (sorted in place). 0 when empty.
double Percentile(std::vector<double>* samples, double p);

struct LatencySummary {
  uint64_t n = 0;
  double p50 = 0;
  double p99 = 0;
  /// Whether p99 met the rule; when false `p99` holds the percentile named
  /// by `tail_pct` instead.
  bool p99_supported = false;
  double tail_pct = 0;
};

LatencySummary Summarize(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
