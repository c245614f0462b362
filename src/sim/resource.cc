#include "src/sim/resource.h"

#include <algorithm>

namespace logbase::sim {

namespace {
// Idle intervals tracked per resource. Callers' clocks only drift a few
// multi-hop chains apart, so a small bound suffices; the oldest gaps are
// the least likely to be fillable by later requests and are dropped first.
constexpr size_t kMaxGaps = 64;
}  // namespace

VirtualTime Resource::Acquire(VirtualTime now, VirtualTime service_us) {
  MutexLock l(mu_);
  total_busy_ += service_us;
  // First try to serve inside an idle gap left behind by a request whose
  // start time was already in this resource's future (a multi-hop chain
  // placing work downstream). Without this, one future-start reservation
  // blocks every later-arriving request at an earlier virtual time even
  // though the server is idle — short ops queue behind long chains they
  // would in reality slip ahead of.
  for (auto it = gaps_.begin(); it != gaps_.end(); ++it) {
    VirtualTime begin = std::max(it->first, now);
    if (begin + service_us > it->second) continue;
    VirtualTime gap_start = it->first;
    VirtualTime gap_end = it->second;
    gaps_.erase(it);
    if (begin > gap_start) gaps_[gap_start] = begin;
    if (begin + service_us < gap_end) gaps_[begin + service_us] = gap_end;
    if (gaps_.size() > kMaxGaps) gaps_.erase(gaps_.begin());
    return begin + service_us;
  }
  VirtualTime begin = std::max(now, free_at_);
  if (begin > free_at_) {
    gaps_[free_at_] = begin;
    if (gaps_.size() > kMaxGaps) gaps_.erase(gaps_.begin());
  }
  free_at_ = begin + service_us;
  return free_at_;
}

VirtualTime Resource::total_busy_us() const {
  MutexLock l(mu_);
  return total_busy_;
}

VirtualTime Resource::free_at() const {
  MutexLock l(mu_);
  return free_at_;
}

void Resource::Reset() {
  MutexLock l(mu_);
  free_at_ = 0;
  total_busy_ = 0;
  gaps_.clear();
}

}  // namespace logbase::sim
