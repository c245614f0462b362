// Tests for the virtual-time simulation substrate: FCFS resources, the disk
// cost model's sequential/random classification, the network model, and
// ambient context plumbing.

#include <gtest/gtest.h>

#include <map>

#include "src/sim/costs.h"
#include "src/sim/disk_model.h"
#include "src/sim/network_model.h"
#include "src/sim/resource.h"
#include "src/sim/sim_context.h"
#include "src/util/random.h"

namespace logbase::sim {
namespace {

TEST(SimContextTest, NoAmbientContextByDefault) {
  EXPECT_EQ(SimContext::Current(), nullptr);
  ChargeCpu(100);  // must be a harmless no-op
  EXPECT_EQ(CurrentVirtualTime(), 0);
}

TEST(SimContextTest, ScopeInstallsAndRestores) {
  SimContext ctx(5);
  {
    SimContext::Scope scope(&ctx);
    EXPECT_EQ(SimContext::Current(), &ctx);
    ChargeCpu(10);
    EXPECT_EQ(CurrentVirtualTime(), 15);
  }
  EXPECT_EQ(SimContext::Current(), nullptr);
}

TEST(SimContextTest, ScopesNest) {
  SimContext outer, inner;
  SimContext::Scope a(&outer);
  {
    SimContext::Scope b(&inner);
    EXPECT_EQ(SimContext::Current(), &inner);
  }
  EXPECT_EQ(SimContext::Current(), &outer);
}

TEST(SimContextTest, AdvanceToNeverMovesBackward) {
  SimContext ctx(100);
  ctx.AdvanceTo(50);
  EXPECT_EQ(ctx.now(), 100);
  ctx.AdvanceTo(150);
  EXPECT_EQ(ctx.now(), 150);
}

TEST(ResourceTest, FcfsSerializesRequests) {
  Resource r("disk");
  // Two requests arriving at t=0: the second queues behind the first.
  EXPECT_EQ(r.Acquire(0, 10), 10);
  EXPECT_EQ(r.Acquire(0, 10), 20);
  // A request arriving after the queue drained starts immediately.
  EXPECT_EQ(r.Acquire(100, 5), 105);
  EXPECT_EQ(r.total_busy_us(), 25);
}

TEST(ResourceTest, FillsIdleGapsBeforeFutureReservations) {
  Resource r("nic");
  // A multi-hop chain parks work in the resource's future; the idle gap
  // before it stays usable.
  EXPECT_EQ(r.Acquire(1000, 10), 1010);
  // An earlier-time request arriving later slips into the idle gap instead
  // of queueing behind the future reservation.
  EXPECT_EQ(r.Acquire(0, 100), 100);
  // A request too big for the remaining gap queues at the tail.
  EXPECT_EQ(r.Acquire(0, 901), 1911);
  // The rest of the gap still serves fitting requests.
  EXPECT_EQ(r.Acquire(200, 300), 500);
  EXPECT_EQ(r.total_busy_us(), 1311);
}

// Gap tracking is bounded on both paths that create gaps: queueing behind a
// future reservation and splitting a gap in two. Wall cost per Acquire scans
// the gaps, so an unbounded split path made it grow through a phase.
TEST(ResourceTest, SplittingAGapKeepsTheGapCap) {
  Resource r("nic");
  // 64 future-start reservations leave 64 gaps: [0,10), [11,20), ...
  for (int i = 1; i <= 64; i++) r.Acquire(i * 10, 1);
  // Landing mid-gap splits [631,640) in two: 65 gaps, so the oldest goes.
  EXPECT_EQ(r.Acquire(635, 1), 636);
  // [0,10) was dropped; the earliest remaining fit is [11,20).
  EXPECT_EQ(r.Acquire(0, 5), 16);
}

// The slot rule spelled out as a plain scan over every idle gap in start
// order (the first gap the request fits in, else the queue tail), with the
// same 64-gap drop-oldest cap.
class LinearScanResource {
 public:
  VirtualTime Acquire(VirtualTime now, VirtualTime service_us) {
    for (auto it = gaps_.begin(); it != gaps_.end(); ++it) {
      const VirtualTime begin = std::max(it->first, now);
      if (begin + service_us > it->second) continue;
      const VirtualTime gap_start = it->first;
      const VirtualTime gap_end = it->second;
      gaps_.erase(it);
      if (begin > gap_start) gaps_[gap_start] = begin;
      if (begin + service_us < gap_end) gaps_[begin + service_us] = gap_end;
      if (gaps_.size() > 64) gaps_.erase(gaps_.begin());
      return begin + service_us;
    }
    const VirtualTime begin = std::max(now, free_at_);
    if (begin > free_at_) gaps_[free_at_] = begin;
    if (gaps_.size() > 64) gaps_.erase(gaps_.begin());
    free_at_ = begin + service_us;
    return free_at_;
  }

 private:
  std::map<VirtualTime, VirtualTime> gaps_;
  VirtualTime free_at_ = 0;
};

// EstimateCompletion is Acquire's read-only twin: over seeded random
// interleavings of on-time requests, future-start reservations (which leave
// idle gaps) and lagging callers (which fill them), every estimate equals
// what the next Acquire with the same arguments returns, both equal the
// plain-scan reference, and estimating — including estimates that are
// never acquired — changes nothing.
TEST(ResourceTest, EstimateCompletionMatchesNextAcquire) {
  for (uint64_t seed = 1; seed <= 20; seed++) {
    Random rnd(seed);
    Resource r("prop");
    LinearScanResource reference;
    VirtualTime clock = 0;
    int gap_fills = 0;
    for (int i = 0; i < 400; i++) {
      clock += static_cast<VirtualTime>(rnd.Uniform(40));
      VirtualTime now = clock;
      switch (rnd.Uniform(3)) {
        case 0:  // a chain parking work in the resource's future
          now += static_cast<VirtualTime>(rnd.Uniform(5000));
          break;
        case 1:  // a caller whose clock lags behind
          now -= std::min<VirtualTime>(
              clock, static_cast<VirtualTime>(rnd.Uniform(3000)));
          break;
        default:
          break;
      }
      const VirtualTime service = 1 + static_cast<VirtualTime>(rnd.Uniform(
                                          rnd.Bernoulli(0.2) ? 2000 : 60));
      const VirtualTime busy = r.total_busy_us();
      const VirtualTime tail = r.free_at();
      const VirtualTime estimate = r.EstimateCompletion(now, service);
      // Probes that are never acquired must not reserve anything either.
      (void)r.EstimateCompletion(now / 2, service * 3);
      (void)r.EstimateCompletion(now + 10000, 1);
      EXPECT_EQ(r.total_busy_us(), busy);
      EXPECT_EQ(r.free_at(), tail);
      const VirtualTime done = r.Acquire(now, service);
      ASSERT_EQ(done, estimate) << "seed " << seed << " step " << i;
      ASSERT_EQ(done, reference.Acquire(now, service))
          << "seed " << seed << " step " << i;
      if (done < tail) gap_fills++;
    }
    EXPECT_GT(gap_fills, 0) << "seed " << seed << " never filled a gap";
  }
}

TEST(ResourceTest, ResetClearsState) {
  Resource r("x");
  r.Acquire(0, 50);
  r.Reset();
  EXPECT_EQ(r.free_at(), 0);
  EXPECT_EQ(r.total_busy_us(), 0);
}

TEST(DiskModelTest, SequentialAvoidsSeek) {
  DiskParams params;
  DiskModel disk("d", params);
  SimContext ctx;
  SimContext::Scope scope(&ctx);

  disk.Access(/*locus=*/1, /*offset=*/0, /*n=*/1000);
  VirtualTime first = ctx.now();
  // Contiguous continuation: no positioning cost.
  disk.Access(1, 1000, 1000);
  VirtualTime second = ctx.now() - first;
  EXPECT_GT(first, second);
  EXPECT_GE(first, params.seek_us);
  EXPECT_LT(second, params.seek_us);
}

TEST(DiskModelTest, RandomAccessPaysSeek) {
  DiskParams params;
  DiskModel disk("d", params);
  SimContext ctx;
  SimContext::Scope scope(&ctx);
  disk.Access(1, 0, 100);
  VirtualTime after_first = ctx.now();
  disk.Access(1, 500000, 100);  // jump within the same locus
  EXPECT_GE(ctx.now() - after_first, params.seek_us);
}

TEST(DiskModelTest, DifferentLocusPaysSeek) {
  DiskModel disk("d");
  SimContext ctx;
  SimContext::Scope scope(&ctx);
  disk.Access(1, 0, 100);
  VirtualTime t1 = ctx.now();
  disk.Access(2, 100, 100);  // different file
  EXPECT_GE(ctx.now() - t1, disk.params().seek_us);
}

TEST(DiskModelTest, TransferScalesWithBytes) {
  DiskModel disk("d");
  VirtualTime small = disk.AccessCost(9, 0, 4 << 10);
  DiskModel disk2("d2");
  VirtualTime large = disk2.AccessCost(9, 0, 64 << 20);
  EXPECT_GT(large, small);
  // 64 MiB at 100 MB/s is ~0.67 s of transfer plus one positioning delay.
  EXPECT_NEAR(static_cast<double>(large), 671088.0 + 12150.0, 15000.0);
}

// EstimateAccess prices the access exactly as AccessFrom charges it —
// positioning for a random access, none for a stream continuation, plus any
// injected stall, behind the disk's queue — without moving the queue or the
// stream table.
TEST(DiskModelTest, EstimateAccessMatchesAccessFrom) {
  DiskModel disk("d");
  const VirtualTime positioning =
      disk.params().seek_us + disk.params().rotational_us;
  EXPECT_EQ(disk.EstimateAccess(100, 1, 0, 1000), 100 + positioning + 11);
  EXPECT_EQ(disk.EstimateAccess(0, 1, 0, 1000), positioning + 11);
  EXPECT_EQ(disk.AccessFrom(0, 1, 0, 1000), positioning + 11);
  const VirtualTime queued = disk.resource()->free_at();
  // Continuing the stream pays transfer only, queued behind the first read.
  EXPECT_EQ(disk.EstimateAccess(0, 1, 1000, 1000), queued + 11);
  EXPECT_EQ(disk.EstimateAccess(0, 1, 1000, 1000), queued + 11);
  disk.set_stall_us(700);
  EXPECT_EQ(disk.EstimateAccess(0, 1, 1000, 1000), queued + 711);
  EXPECT_EQ(disk.AccessFrom(0, 1, 1000, 1000), queued + 711);
}

TEST(DiskModelTest, NoContextNoCharge) {
  DiskModel disk("d");
  disk.Access(1, 0, 1 << 20);  // must not crash without a context
  EXPECT_EQ(disk.resource()->total_busy_us(), 0);
}

TEST(NetworkModelTest, LoopbackIsCheap) {
  NetworkModel net(2);
  SimContext ctx;
  SimContext::Scope scope(&ctx);
  net.Transfer(0, 0, 1 << 20);
  EXPECT_EQ(ctx.now(), net.params().loopback_us);
}

TEST(NetworkModelTest, RemoteTransferPaysOverheadAndBandwidth) {
  NetworkModel net(2);
  SimContext ctx;
  SimContext::Scope scope(&ctx);
  net.Transfer(0, 1, 117);  // ~1 us of wire time at 117 MB/s
  EXPECT_GE(ctx.now(), net.params().rpc_overhead_us);
  VirtualTime small = ctx.now();
  net.Transfer(0, 1, 117 * 1000000);  // ~1 s of wire time
  EXPECT_GT(ctx.now() - small, 1000000);
}

TEST(NetworkModelTest, EstimateTransferMatchesTransferFrom) {
  NetworkModel net(3);
  EXPECT_EQ(net.EstimateTransfer(40, 1, 1, 1 << 20),
            40 + net.params().loopback_us);
  // Queue node 0's egress, then estimate a send that waits behind it.
  (void)net.TransferFrom(0, 0, 2, 117 * 1000);
  const VirtualTime estimate = net.EstimateTransfer(0, 0, 1, 117 * 10);
  EXPECT_EQ(estimate, 1001 + 11 + net.params().rpc_overhead_us);
  EXPECT_EQ(net.EstimateTransfer(0, 0, 1, 117 * 10), estimate);
  EXPECT_EQ(net.TransferFrom(0, 0, 1, 117 * 10), estimate);
}

TEST(NetworkModelTest, NicContentionQueues) {
  NetworkModel net(3);
  SimContext a, b;
  {
    SimContext::Scope scope(&a);
    net.Transfer(0, 1, 117 * 100000);  // ~100 ms on node 0's NIC
  }
  {
    SimContext::Scope scope(&b);
    net.Transfer(0, 2, 117);  // queues behind the big send on NIC 0
  }
  EXPECT_GT(b.now(), 100000);
}

TEST(CostsTest, ConstantsAreSmallRelativeToIo) {
  EXPECT_LT(costs::kIndexLookupUs, 10);
  EXPECT_LT(costs::kCacheProbeUs, 10);
  DiskModel disk("d");
  EXPECT_GT(disk.params().seek_us, 100 * costs::kIndexLookupUs);
}

}  // namespace
}  // namespace logbase::sim
