#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p among n samples. The epsilon keeps
// float error from bumping an exact rank (99.9% of 10000) up by one.
uint64_t Rank(uint64_t n, double p) {
  auto rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<uint64_t>(rank, 1, n);
}

}  // namespace

uint64_t SamplesBeyond(uint64_t n, double p) {
  if (n == 0) return 0;
  return n - Rank(n, p);
}

bool Supports(uint64_t n, double p) { return SamplesBeyond(n, p) >= 10; }

double HighestSupported(uint64_t n) {
  for (double p : {99.0, 95.0, 90.0, 50.0}) {
    if (Supports(n, p)) return p;
  }
  return 0;
}

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  return (*samples)[Rank(samples->size(), p) - 1];
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  s.p50 = Percentile(&samples, 50);
  s.p99_supported = Supports(s.n, 99);
  s.tail_pct = s.p99_supported ? 99.0 : HighestSupported(s.n);
  s.p99 = Percentile(&samples, s.tail_pct > 0 ? s.tail_pct : 100.0);
  return s;
}

}  // namespace perfbench
