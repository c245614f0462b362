// A single server in virtual time: the building block for disks and NICs.
// A request arriving at `now` with service time `s` is served in the
// earliest idle interval that fits, no earlier than `now` — usually
// max(now, free_at) + s, but a request with an earlier start time arriving
// after a future-start reservation slips into the idle gap before it (the
// server is genuinely idle there; without gap reuse, one multi-hop chain
// parking work downstream would serialize every later-issued short op
// behind it). Serializing all actors' requests through the same Resource
// is what produces queueing delay under contention.

#ifndef LOGBASE_SIM_RESOURCE_H_
#define LOGBASE_SIM_RESOURCE_H_

#include <map>
#include <mutex>
#include <string>

#include "src/sim/sim_context.h"

#include "src/util/ordered_mutex.h"

namespace logbase::sim {

/// Thread-safe virtual-time single server with idle-gap reuse.
class Resource {
 public:
  explicit Resource(std::string name) : name_(std::move(name)) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Serves a request of `service_us` in the earliest idle interval
  /// starting no earlier than `now`; returns the completion time. May
  /// complete before a previously issued request whose start time was
  /// later (service order follows virtual arrival time, not call order).
  VirtualTime Acquire(VirtualTime now, VirtualTime service_us);

  /// The completion time the next Acquire(now, service_us) would return,
  /// without reserving anything: the read-only twin of Acquire (one slot
  /// search serves both). Lets a caller compare several resources before
  /// committing to one.
  VirtualTime EstimateCompletion(VirtualTime now,
                                 VirtualTime service_us) const;

  /// Total time this resource has spent serving requests (utilization
  /// accounting for bottleneck analysis).
  VirtualTime total_busy_us() const;

  /// The time past every reservation made so far (the queue tail; idle
  /// gaps before it may still accept earlier-starting requests).
  VirtualTime free_at() const;

  const std::string& name() const { return name_; }

  /// Forgets queue state (between benchmark phases).
  void Reset();

 private:
  using GapMap = std::map<VirtualTime, VirtualTime>;

  /// Where a request of `service_us` arriving at `now` is served: its start
  /// time and the idle gap it fits in (gaps_.end() = at the queue tail).
  struct Slot {
    VirtualTime begin;
    GapMap::const_iterator gap;
  };
  Slot FindSlotLocked(VirtualTime now, VirtualTime service_us) const
      REQUIRES(mu_);

  mutable OrderedMutex mu_{lockrank::kSimResource, "sim.resource"};
  const std::string name_;
  VirtualTime free_at_ GUARDED_BY(mu_) = 0;
  VirtualTime total_busy_ GUARDED_BY(mu_) = 0;
  /// Idle intervals [start, end) before free_at_, ordered by start.
  GapMap gaps_ GUARDED_BY(mu_);
};

}  // namespace logbase::sim

#endif  // LOGBASE_SIM_RESOURCE_H_
