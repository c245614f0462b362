#include "src/sim/resource.h"

#include <algorithm>
#include <iterator>

namespace logbase::sim {

namespace {
// Idle intervals tracked per resource. Callers' clocks only drift a few
// multi-hop chains apart, so a small bound suffices; the oldest gaps are
// the least likely to be fillable by later requests and are dropped first.
constexpr size_t kMaxGaps = 64;
}  // namespace

Resource::Slot Resource::FindSlotLocked(VirtualTime now,
                                        VirtualTime service_us) const {
  // First try to serve inside an idle gap left behind by a request whose
  // start time was already in this resource's future (a multi-hop chain
  // placing work downstream). Without this, one future-start reservation
  // blocks every later-arriving request at an earlier virtual time even
  // though the server is idle — short ops queue behind long chains they
  // would in reality slip ahead of.
  //
  // The gaps are disjoint, so their ends ascend with their starts: no gap
  // before the last one starting below `finish` can end late enough to hold
  // the request, and that one only if it ends at or after `finish`. Seeking
  // there keeps the search logarithmic in the common case (callers estimate
  // several resources per read before acquiring one).
  const VirtualTime finish = now + service_us;
  auto it = gaps_.lower_bound(finish);
  if (it != gaps_.begin() && std::prev(it)->second >= finish) --it;
  for (; it != gaps_.end(); ++it) {
    VirtualTime begin = std::max(it->first, now);
    if (begin + service_us <= it->second) return Slot{begin, it};
  }
  return Slot{std::max(now, free_at_), gaps_.end()};
}

VirtualTime Resource::EstimateCompletion(VirtualTime now,
                                         VirtualTime service_us) const {
  MutexLock l(mu_);
  return FindSlotLocked(now, service_us).begin + service_us;
}

VirtualTime Resource::Acquire(VirtualTime now, VirtualTime service_us) {
  MutexLock l(mu_);
  total_busy_ += service_us;
  const Slot slot = FindSlotLocked(now, service_us);
  const VirtualTime end = slot.begin + service_us;
  if (slot.gap != gaps_.end()) {
    const VirtualTime gap_start = slot.gap->first;
    const VirtualTime gap_end = slot.gap->second;
    gaps_.erase(slot.gap);
    if (slot.begin > gap_start) gaps_[gap_start] = slot.begin;
    if (end < gap_end) gaps_[end] = gap_end;
  } else {
    if (slot.begin > free_at_) gaps_[free_at_] = slot.begin;
    free_at_ = end;
  }
  if (gaps_.size() > kMaxGaps) gaps_.erase(gaps_.begin());
  return end;
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
