// Tests for the distributed file system: replication, rack-aware placement,
// block striping, failure handling and the FileSystem adapter.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "src/dfs/dfs.h"
#include "src/obs/metrics.h"
#include "src/sim/sim_context.h"
#include "src/util/random.h"

namespace logbase::dfs {
namespace {

DfsOptions SmallBlocks(int nodes = 3, uint64_t block = 1024) {
  DfsOptions options;
  options.num_nodes = nodes;
  options.block_size = block;
  options.nodes_per_rack = 2;
  return options;
}

TEST(DfsTest, CreateWriteRead) {
  Dfs dfs(SmallBlocks());
  auto wf = dfs.Create("/f", 0);
  ASSERT_TRUE(wf.ok());
  ASSERT_TRUE((*wf)->Append("hello dfs").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto rf = dfs.Open("/f", 1);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(*(*rf)->Read(0, 9), "hello dfs");
  EXPECT_EQ((*rf)->Size(), 9u);
}

TEST(DfsTest, CreateFailsIfExists) {
  Dfs dfs(SmallBlocks());
  ASSERT_TRUE(dfs.Create("/f", 0).ok());
  EXPECT_FALSE(dfs.Create("/f", 0).ok());
}

TEST(DfsTest, OpenMissingFileFails) {
  Dfs dfs(SmallBlocks());
  EXPECT_TRUE(dfs.Open("/nope", 0).status().IsNotFound());
}

TEST(DfsTest, LargeAppendSpansBlocks) {
  Dfs dfs(SmallBlocks(3, 1000));
  auto wf = dfs.Create("/big", 0);
  std::string data(4500, 'z');
  ASSERT_TRUE((*wf)->Append(data).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/big");
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->size(), 5u);  // 4 full + 1 partial
  auto rf = dfs.Open("/big", 0);
  auto all = (*rf)->Read(0, 4500);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, data);
  // Cross-block read.
  EXPECT_EQ(*(*rf)->Read(950, 100), std::string(100, 'z'));
}

TEST(DfsTest, ThreeWayReplication) {
  Dfs dfs(SmallBlocks(5));
  auto wf = dfs.Create("/r", 0);
  ASSERT_TRUE((*wf)->Append("abc").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/r");
  ASSERT_EQ(blocks->size(), 1u);
  EXPECT_EQ((*blocks)[0].replicas.size(), 3u);
  // Every replica node actually stores the bytes.
  for (int node : (*blocks)[0].replicas) {
    EXPECT_TRUE(dfs.data_node(node)->HasBlock((*blocks)[0].id));
  }
}

TEST(DfsTest, FirstReplicaIsWriterLocal) {
  Dfs dfs(SmallBlocks(5));
  auto wf = dfs.Create("/local", 3);
  ASSERT_TRUE((*wf)->Append("x").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/local");
  EXPECT_EQ((*blocks)[0].replicas[0], 3);
}

TEST(DfsTest, RackAwarePlacement) {
  // 6 nodes, 2 per rack -> racks {0,0,1,1,2,2} with nodes_per_rack=2.
  Dfs dfs(SmallBlocks(6));
  for (int i = 0; i < 20; i++) {
    auto wf = dfs.Create("/f" + std::to_string(i), 0);
    ASSERT_TRUE((*wf)->Append("data").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
    auto blocks = dfs.name_node()->GetBlocks("/f" + std::to_string(i));
    const std::vector<int>& replicas = (*blocks)[0].replicas;
    ASSERT_EQ(replicas.size(), 3u);
    auto rack = [](int node) { return node / 2; };
    // Replica 2 is off the writer's rack; replica 3 shares replica 2's rack.
    EXPECT_NE(rack(replicas[0]), rack(replicas[1]));
    EXPECT_EQ(rack(replicas[1]), rack(replicas[2]));
    EXPECT_NE(replicas[1], replicas[2]);
  }
}

TEST(DfsTest, ReadSurvivesTwoReplicaFailures) {
  Dfs dfs(SmallBlocks(4));
  auto wf = dfs.Create("/hardy", 0);
  ASSERT_TRUE((*wf)->Append("survives").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/hardy");
  const std::vector<int>& replicas = (*blocks)[0].replicas;
  dfs.KillDataNode(replicas[0]);
  dfs.KillDataNode(replicas[1]);
  auto rf = dfs.Open("/hardy", replicas[0]);
  EXPECT_EQ(*(*rf)->Read(0, 8), "survives");
}

TEST(DfsTest, ReadFailsWhenAllReplicasDead) {
  Dfs dfs(SmallBlocks(3));
  auto wf = dfs.Create("/gone", 0);
  ASSERT_TRUE((*wf)->Append("lost").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  for (int i = 0; i < 3; i++) dfs.KillDataNode(i);
  auto rf = dfs.Open("/gone", 0);
  ASSERT_TRUE(rf.ok());  // metadata still there
  EXPECT_TRUE((*rf)->Read(0, 4).status().IsUnavailable());
}

TEST(DfsTest, WriteContinuesWithReducedPipeline) {
  Dfs dfs(SmallBlocks(3));
  dfs.KillDataNode(2);
  auto wf = dfs.Create("/reduced", 0);
  ASSERT_TRUE((*wf)->Append("still works").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto rf = dfs.Open("/reduced", 0);
  EXPECT_EQ(*(*rf)->Read(0, 11), "still works");
}

TEST(DfsTest, RereplicationRestoresCopies) {
  Dfs dfs(SmallBlocks(5));
  auto wf = dfs.Create("/heal", 0);
  ASSERT_TRUE((*wf)->Append("heal me").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/heal");
  int victim = (*blocks)[0].replicas[0];
  dfs.KillDataNode(victim);
  auto copied = dfs.Rereplicate(victim);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(*copied, 1);
  // Live replicas back to 3.
  blocks = dfs.name_node()->GetBlocks("/heal");
  int live = 0;
  for (int r : (*blocks)[0].replicas) {
    if (dfs.data_node(r)->alive() && dfs.data_node(r)->HasBlock((*blocks)[0].id)) {
      live++;
    }
  }
  EXPECT_GE(live, 3);
}

TEST(DfsTest, KillNodeRestoresReplicationOfEveryAffectedBlock) {
  Dfs dfs(SmallBlocks(6, 512));
  // Several multi-block files so the victim holds replicas of many blocks.
  for (int f = 0; f < 3; f++) {
    auto wf = dfs.Create("/kill" + std::to_string(f), f);
    ASSERT_TRUE((*wf)->Append(std::string(1800, 'a' + f)).ok());
    ASSERT_TRUE((*wf)->Sync().ok());
  }
  obs::Counter* recovered = obs::MetricsRegistry::Global().counter(
      "dfs.replication.recovered_blocks");
  uint64_t before = recovered->value();

  int victim = (*dfs.name_node()->GetBlocks("/kill0"))[0].replicas[0];
  dfs.KillDataNode(victim);
  auto copied = dfs.Rereplicate(victim);
  ASSERT_TRUE(copied.ok());
  EXPECT_GT(*copied, 0);

  // Every block of every file is back at full replication on live nodes.
  auto files = dfs.name_node()->List("");
  ASSERT_TRUE(files.ok());
  std::vector<bool> alive = dfs.AliveNodes();
  for (const std::string& path : *files) {
    auto blocks = dfs.name_node()->GetBlocks(path);
    ASSERT_TRUE(blocks.ok());
    for (const BlockInfo& block : *blocks) {
      int live = 0;
      for (int node = 0; node < dfs.num_nodes(); node++) {
        if (alive[node] && dfs.data_node(node)->HasBlock(block.id)) live++;
      }
      EXPECT_GE(live, 3) << path << " block " << block.id;
    }
  }
  EXPECT_EQ(recovered->value() - before, static_cast<uint64_t>(*copied));
}

TEST(DfsTest, NodeRestartServesOldBlocks) {
  Dfs dfs(SmallBlocks(3));
  auto wf = dfs.Create("/again", 0);
  ASSERT_TRUE((*wf)->Append("persisted").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  dfs.KillDataNode(0);
  dfs.RestartDataNode(0);
  auto rf = dfs.Open("/again", 0);
  EXPECT_EQ(*(*rf)->Read(0, 9), "persisted");
}

TEST(DfsTest, ConcurrentReaderSeesGrowingTail) {
  Dfs dfs(SmallBlocks(3, 100));
  auto wf = dfs.Create("/tail", 0);
  ASSERT_TRUE((*wf)->Append("first").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto rf = dfs.Open("/tail", 1);
  EXPECT_EQ(*(*rf)->Read(0, 5), "first");
  ASSERT_TRUE((*wf)->Append("second").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  EXPECT_EQ(*(*rf)->Read(5, 6), "second");
}

TEST(DfsTest, DeleteReclaimsBlocks) {
  Dfs dfs(SmallBlocks(3));
  auto wf = dfs.Create("/tmp", 0);
  ASSERT_TRUE((*wf)->Append("bytes").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/tmp");
  BlockId id = (*blocks)[0].id;
  ASSERT_TRUE(dfs.Delete("/tmp").ok());
  EXPECT_FALSE(dfs.Exists("/tmp"));
  for (int i = 0; i < 3; i++) {
    EXPECT_FALSE(dfs.data_node(i)->HasBlock(id));
  }
}

TEST(DfsTest, RenameAndList) {
  Dfs dfs(SmallBlocks(3));
  ASSERT_TRUE(dfs.Create("/dir/a", 0).ok());
  ASSERT_TRUE(dfs.Create("/dir/b", 0).ok());
  ASSERT_TRUE(dfs.Rename("/dir/a", "/dir/c").ok());
  auto names = dfs.List("/dir/");
  ASSERT_TRUE(names.ok());
  std::set<std::string> set(names->begin(), names->end());
  EXPECT_EQ(set, (std::set<std::string>{"/dir/b", "/dir/c"}));
}

TEST(DfsTest, WritesChargeDiskAndNetwork) {
  Dfs dfs(SmallBlocks(3));
  sim::SimContext ctx;
  {
    sim::SimContext::Scope scope(&ctx);
    auto wf = dfs.Create("/cost", 0);
    ASSERT_TRUE((*wf)->Append(std::string(1 << 20, 'c')).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  }
  // Synchronous 3-way pipeline of 1 MB must cost milliseconds of virtual
  // time (disk + two network hops).
  EXPECT_GT(ctx.now(), 10000);
  EXPECT_GT(dfs.data_node(0)->disk()->resource()->total_busy_us(), 0);
}

TEST(DfsTest, LocalReadSkipsNetwork) {
  Dfs dfs(SmallBlocks(3));
  {
    auto wf = dfs.Create("/near", 1);
    ASSERT_TRUE((*wf)->Append(std::string(100000, 'n')).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  }
  sim::SimContext local, remote;
  {
    sim::SimContext::Scope scope(&local);
    auto rf = dfs.Open("/near", 1);  // writer-local node holds replica 1
    ASSERT_TRUE((*rf)->Read(0, 100000).ok());
  }
  {
    sim::SimContext::Scope scope(&remote);
    // Pick a node with no replica.
    auto blocks = dfs.name_node()->GetBlocks("/near");
    int outsider = -1;
    for (int i = 0; i < 3; i++) {
      const auto& reps = (*blocks)[0].replicas;
      if (std::find(reps.begin(), reps.end(), i) == reps.end()) outsider = i;
    }
    if (outsider >= 0) {
      auto rf = dfs.Open("/near", outsider);
      ASSERT_TRUE((*rf)->Read(0, 100000).ok());
      EXPECT_GT(remote.now(), local.now());
    }
  }
}

// ---------------------------------------------------------------------------
// Sieved range reads.
// ---------------------------------------------------------------------------

/// Distinct bytes per offset, so a misplaced piece cannot compare equal.
std::string Pattern(size_t n) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; i++) out[i] = static_cast<char>('a' + (i * 7) % 26);
  return out;
}

uint64_t BridgedBytes() {
  return obs::MetricsRegistry::Global()
      .counter("dfs.pread.bridged_bytes")
      ->value();
}

// Two 1000-byte ranges with a gap just below / at the seek-equivalent: the
// first shares one disk access (positioning + transfer of the whole span),
// the second pays two positionings.
TEST(DataNodeTest, ReadBlockRangesBridgesGapsBelowSeekEquivalent) {
  const sim::DiskParams params;
  const uint64_t bridge = DataNode(0, params).disk()->seek_equivalent_bytes();
  ASSERT_EQ(bridge, 1215000u);  // (8000 + 4150) us x 100 B/us
  const sim::VirtualTime positioning = params.seek_us + params.rotational_us;
  auto transfer = [](uint64_t n) {
    return static_cast<sim::VirtualTime>(n / 100) + 1;  // 100 MB/s, +1 us
  };
  const std::string data = Pattern(3 * bridge);
  for (uint64_t gap : {bridge - 1, bridge}) {
    DataNode dn(0, params);
    ASSERT_TRUE(dn.StoreBlockData(7, 0, data).ok());
    const std::vector<ReadRange> ranges = {{0, 1000}, {1000 + gap, 1000}};
    const uint64_t bridged_before = BridgedBytes();
    sim::SimContext ctx;
    Result<std::vector<std::string>> pieces = [&] {
      sim::SimContext::Scope scope(&ctx);
      return dn.ReadBlockRanges(7, ranges);
    }();
    ASSERT_TRUE(pieces.ok());
    ASSERT_EQ(pieces->size(), 2u);
    EXPECT_EQ((*pieces)[0], data.substr(0, 1000));
    EXPECT_EQ((*pieces)[1], data.substr(1000 + gap, 1000));
    if (gap < bridge) {
      EXPECT_EQ(ctx.now(), positioning + transfer(2000 + gap));
      EXPECT_EQ(BridgedBytes() - bridged_before, gap);
    } else {
      EXPECT_EQ(ctx.now(), 2 * (positioning + transfer(1000)));
      EXPECT_EQ(BridgedBytes() - bridged_before, 0u);
    }
  }
}

TEST(DataNodeTest, ReadBlockRangesFailsWholeOnInjectedError) {
  DataNode dn(0);
  ASSERT_TRUE(dn.StoreBlockData(1, 0, Pattern(4096)).ok());
  const std::vector<ReadRange> ranges = {{0, 10}, {100, 10}, {4000, 10}};
  dn.InjectIoErrors(1);
  EXPECT_TRUE(dn.ReadBlockRanges(1, ranges).status().IsIOError());
  auto retry = dn.ReadBlockRanges(1, ranges);  // the one error is consumed
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ((*retry)[2], Pattern(4096).substr(4000, 10));
}

// Every range reads exactly what Read returns: in-block ranges, one
// straddling a block boundary, and one running past the end of the file.
TEST(DfsRangesTest, ReadRangesMatchesReadIncludingStraddles) {
  Dfs dfs(SmallBlocks(3, 1000));
  const std::string data = Pattern(4500);
  auto wf = dfs.Create("/ranges", 0);
  ASSERT_TRUE((*wf)->Append(data).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto rf = dfs.Open("/ranges", 1);
  const std::vector<ReadRange> ranges = {
      {10, 20}, {200, 50}, {990, 20}, {2500, 100}, {4490, 100}, {5000, 10}};
  auto pieces = (*rf)->ReadRanges(ranges);
  ASSERT_TRUE(pieces.ok());
  ASSERT_EQ(pieces->size(), ranges.size());
  for (size_t i = 0; i < ranges.size(); i++) {
    auto expect = (*rf)->Read(ranges[i].offset, ranges[i].n);
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ((*pieces)[i], *expect) << "range " << i;
  }
  EXPECT_EQ((*pieces)[2], data.substr(990, 20));  // the straddler
  EXPECT_EQ((*pieces)[4], data.substr(4490));     // short at EOF
  EXPECT_TRUE((*pieces)[5].empty());              // past EOF
}

TEST(DfsRangesTest, DeadLocalReplicaFailsOverToRemote) {
  Dfs dfs(SmallBlocks(3, 1 << 20));
  const std::string data = Pattern(100000);
  auto wf = dfs.Create("/failover", 0);
  ASSERT_TRUE((*wf)->Append(data).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto rf = dfs.Open("/failover", 0);  // node 0 holds the local replica
  dfs.KillDataNode(0);
  const std::vector<ReadRange> ranges = {{0, 100}, {50000, 100}};
  sim::SimContext ctx;
  Result<std::vector<std::string>> pieces = [&] {
    sim::SimContext::Scope scope(&ctx);
    return (*rf)->ReadRanges(ranges);
  }();
  ASSERT_TRUE(pieces.ok());
  EXPECT_EQ((*pieces)[0], data.substr(0, 100));
  EXPECT_EQ((*pieces)[1], data.substr(50000, 100));
  EXPECT_EQ(dfs.data_node(0)->disk()->resource()->total_busy_us(), 0);
  EXPECT_GT(dfs.data_node(1)->disk()->resource()->total_busy_us() +
                dfs.data_node(2)->disk()->resource()->total_busy_us(),
            0);
}

// A replica that missed quorum-acked tail appends returns short pieces for
// the tail; those ranges fall back to Read, which heals from the longest
// replica, while ranges the stale replica holds stay on the sweep.
TEST(DfsRangesTest, ShortReplicaFallsBackToHealingRead) {
  Dfs dfs(SmallBlocks(3, 1 << 20));
  const std::string data = Pattern(20000);
  auto wf = dfs.Create("/stale", 0);
  ASSERT_TRUE((*wf)->Append(data.substr(0, 10000)).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  dfs.KillDataNode(2);
  ASSERT_TRUE((*wf)->Append(data.substr(10000)).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  dfs.RestartDataNode(2);
  ASSERT_EQ(*dfs.data_node(2)->BlockSize(
                (*dfs.name_node()->GetBlocks("/stale"))[0].id),
            10000u);

  auto rf = dfs.Open("/stale", 2);  // the stale replica is local: tried first
  const std::vector<ReadRange> ranges = {{100, 50}, {9990, 20}, {15000, 50}};
  auto pieces = (*rf)->ReadRanges(ranges);
  ASSERT_TRUE(pieces.ok());
  for (size_t i = 0; i < ranges.size(); i++) {
    EXPECT_EQ((*pieces)[i], data.substr(ranges[i].offset, ranges[i].n))
        << "range " << i;
  }
}

// Several readers share one open file (as LogReader shares a segment)
// and read its growing tail while a writer appends: the cached block
// locations are refreshed under the reader's lock and iterated as a
// snapshot, so the refresh never races the iteration (run under TSan).
TEST(DfsRangesTest, ConcurrentTailReadersDuringAppends) {
  Dfs dfs(SmallBlocks(3, 512));
  const std::string data = Pattern(64 * 200);
  auto wf = dfs.Create("/shared", 0);
  ASSERT_TRUE((*wf)->Append(data.substr(0, 64)).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto rf = dfs.Open("/shared", 1);
  ASSERT_TRUE(rf.ok());
  const RandomAccessFile* shared = rf->get();

  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<int> reads{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&, t] {
      started.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        reads.fetch_add(1);
        const uint64_t size = shared->Size();
        if (size < 64) continue;
        const uint64_t tail = size - 64;
        if (t % 2 == 0) {
          auto piece = shared->Read(tail, 64);
          if (!piece.ok() || *piece != data.substr(tail, piece->size())) {
            mismatches.fetch_add(1);
          }
        } else {
          auto pieces = shared->ReadRanges({{0, 16}, {tail, 64}});
          if (!pieces.ok() || (*pieces)[0] != data.substr(0, 16) ||
              (*pieces)[1] != data.substr(tail, (*pieces)[1].size())) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  while (started.load() < 4) std::this_thread::yield();
  for (size_t off = 64; off < data.size(); off += 64) {
    ASSERT_TRUE((*wf)->Append(data.substr(off, 64)).ok());
    ASSERT_TRUE((*wf)->Sync().ok());
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  auto all = shared->Read(0, data.size());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, data);
}

// ---------------------------------------------------------------------------
// Load-aware replica reads: each single-range read goes to the replica that
// would finish it first (disk queue + access cost + response leg).
// ---------------------------------------------------------------------------

constexpr sim::VirtualTime kPositioningUs = 8000 + 4150;  // default disk
constexpr sim::VirtualTime kLoopbackUs = 15;
constexpr sim::VirtualTime kRpcOverheadUs = 150;

sim::VirtualTime DiskUs(uint64_t n) {
  return static_cast<sim::VirtualTime>(n / 100) + 1;  // 100 MB/s, +1 us
}

sim::VirtualTime WireUs(uint64_t n) {
  return static_cast<sim::VirtualTime>(static_cast<double>(n) / 117.0) + 1;
}

uint64_t SteeredReads() {
  return obs::MetricsRegistry::Global().counter("dfs.pread.steered")->value();
}

/// Three nodes, each holding a replica of one block of Pattern(`size`)
/// written by node 0 with no actor, so every disk and NIC starts idle. The
/// sticky order of a reader on node 0 is 0, 1, 2.
struct SteeringFixture {
  explicit SteeringFixture(size_t size = 100000)
      : dfs(SmallBlocks(3, 1 << 20)), data(Pattern(size)) {
    auto wf = dfs.Create("/steer", 0);
    EXPECT_TRUE((*wf)->Append(data).ok());
    EXPECT_TRUE((*wf)->Sync().ok());
    rf = std::move(*dfs.Open("/steer", 0));
    // A zero-length read caches the block locations and touches no disk,
    // so the measured reads below pay no metadata RPC.
    EXPECT_TRUE(rf->Read(0, 0).ok());
  }

  /// Reads [offset, offset + n) on a fresh clock starting at `start`;
  /// returns its completion time.
  sim::VirtualTime TimedRead(uint64_t offset, size_t n,
                             sim::VirtualTime start = 0) {
    sim::SimContext ctx(start);
    sim::SimContext::Scope scope(&ctx);
    auto got = rf->Read(offset, n);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (got.ok()) EXPECT_EQ(*got, data.substr(offset, n));
    return ctx.now();
  }

  sim::VirtualTime Busy(int node) {
    return dfs.data_node(node)->disk()->resource()->total_busy_us();
  }
  /// Another actor's work queued on `node`'s disk.
  void QueueDisk(int node, sim::VirtualTime start, sim::VirtualTime us) {
    (void)dfs.data_node(node)->disk()->resource()->Acquire(start, us);
  }

  Dfs dfs;
  const std::string data;
  std::unique_ptr<RandomAccessFile> rf;
};

TEST(DfsSteeringTest, IdleClusterReadsLocallyAtUnchangedCost) {
  SteeringFixture f;
  const uint64_t steered = SteeredReads();
  EXPECT_EQ(f.TimedRead(5000, 4000),
            kPositioningUs + DiskUs(4000) + kLoopbackUs);
  EXPECT_GT(f.Busy(0), 0);
  EXPECT_EQ(f.Busy(1), 0);
  EXPECT_EQ(f.Busy(2), 0);
  EXPECT_EQ(SteeredReads(), steered);
}

// The local disk is busy for 50 ms: the read goes to the first idle remote
// replica in sticky order and completes at remote disk + RPC overhead +
// wire time.
TEST(DfsSteeringTest, QueuedLocalDiskSendsReadToRemoteReplica) {
  SteeringFixture f;
  f.QueueDisk(0, 0, 50000);
  const uint64_t steered = SteeredReads();
  EXPECT_EQ(f.TimedRead(5000, 4000),
            kPositioningUs + DiskUs(4000) + kRpcOverheadUs + WireUs(4000));
  EXPECT_EQ(f.Busy(0), 50000);  // only the other actor's work
  EXPECT_EQ(f.Busy(1), kPositioningUs + DiskUs(4000));
  EXPECT_EQ(f.Busy(2), 0);
  EXPECT_EQ(SteeredReads(), steered + 1);
}

// A sequential reader pays no positioning on the replica holding its
// stream, so it stays there behind a queue shorter than a seek, where a
// random read at the same queue depth moves to an idle remote disk.
TEST(DfsSteeringTest, SequentialTailerStaysOnItsStreamReplica) {
  SteeringFixture f;
  const uint64_t steered = SteeredReads();
  sim::VirtualTime t = f.TimedRead(0, 4000);
  EXPECT_EQ(t, kPositioningUs + DiskUs(4000) + kLoopbackUs);
  for (uint64_t off = 4000; off < 20000; off += 4000) {
    f.QueueDisk(0, t, 5000);
    const sim::VirtualTime next = f.TimedRead(off, 4000, t);
    EXPECT_EQ(next, t + 5000 + DiskUs(4000) + kLoopbackUs) << off;
    t = next;
  }
  EXPECT_EQ(f.Busy(1) + f.Busy(2), 0);
  EXPECT_EQ(SteeredReads(), steered);

  f.QueueDisk(0, t, 5000);
  EXPECT_EQ(f.TimedRead(60000, 4000, t),
            t + kPositioningUs + DiskUs(4000) + kRpcOverheadUs +
                WireUs(4000));
  EXPECT_EQ(SteeredReads(), steered + 1);
}

// The replica the estimate prefers (1: idle, first remote in sticky order)
// is dead: the read falls over to the next-fastest replica, idle remote 2.
TEST(DfsSteeringTest, DeadPreferredReplicaFailsOver) {
  SteeringFixture f;
  f.QueueDisk(0, 0, 50000);
  f.dfs.KillDataNode(1);
  EXPECT_EQ(f.TimedRead(5000, 4000),
            kPositioningUs + DiskUs(4000) + kRpcOverheadUs + WireUs(4000));
  EXPECT_EQ(f.Busy(1), 0);
  EXPECT_EQ(f.Busy(2), kPositioningUs + DiskUs(4000));
}

/// Blocks one node pair and counts the reachability questions asked.
class PairPartition : public sim::NetworkFaultPolicy {
 public:
  PairPartition(int a, int b) : a_(a), b_(b) {}
  bool Reachable(int src, int dst) override {
    asked.fetch_add(1);
    return !((src == a_ && dst == b_) || (src == b_ && dst == a_));
  }
  sim::VirtualTime ExtraDelayUs(int, int) override { return 0; }
  std::atomic<int> asked{0};

 private:
  const int a_;
  const int b_;
};

// The preferred replica is partitioned from the reader: the read falls
// over to replica 2, and reachability is asked only of the two replicas
// actually tried (a false answer uses up a drop decision).
TEST(DfsSteeringTest, PartitionedPreferredReplicaFailsOver) {
  SteeringFixture f;
  PairPartition partition(0, 1);
  f.dfs.network()->set_fault_policy(&partition);
  f.QueueDisk(0, 0, 50000);
  EXPECT_EQ(f.TimedRead(5000, 4000),
            kPositioningUs + DiskUs(4000) + kRpcOverheadUs + WireUs(4000));
  f.dfs.network()->set_fault_policy(nullptr);
  EXPECT_EQ(partition.asked.load(), 2);
  EXPECT_EQ(f.Busy(1), 0);
  EXPECT_EQ(f.Busy(2), kPositioningUs + DiskUs(4000));
}

// Replica 1 missed the second half of the block (a quorum-acked append while
// it was down). It cannot finish a tail read, so it goes last and the read
// is served whole by idle replica 2; a read it does hold still prefers it.
// With every full replica down the read heals from the longest prefix.
TEST(DfsSteeringTest, StaleShortReplicaIsReadAroundOrHealed) {
  Dfs dfs(SmallBlocks(3, 1 << 20));
  const std::string data = Pattern(20000);
  auto wf = dfs.Create("/stale", 0);
  ASSERT_TRUE((*wf)->Append(data.substr(0, 10000)).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  dfs.KillDataNode(1);
  ASSERT_TRUE((*wf)->Append(data.substr(10000)).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  dfs.RestartDataNode(1);
  auto rf = std::move(*dfs.Open("/stale", 0));
  ASSERT_TRUE(rf->Read(0, 0).ok());
  auto busy = [&](int node) {
    return dfs.data_node(node)->disk()->resource()->total_busy_us();
  };
  (void)dfs.data_node(0)->disk()->resource()->Acquire(0, 50000);
  auto timed_read = [&](uint64_t offset, size_t n) {
    sim::SimContext ctx;
    sim::SimContext::Scope scope(&ctx);
    auto got = rf->Read(offset, n);
    EXPECT_TRUE(got.ok());
    if (got.ok()) EXPECT_EQ(*got, data.substr(offset, n));
    return ctx.now();
  };
  const sim::VirtualTime remote =
      kPositioningUs + DiskUs(1000) + kRpcOverheadUs + WireUs(1000);
  EXPECT_EQ(timed_read(15000, 1000), remote);
  EXPECT_EQ(busy(1), 0);
  EXPECT_EQ(busy(2), kPositioningUs + DiskUs(1000));
  // Replica 1 holds this range. Its response queues behind the first one
  // on the reader's NIC ingress (the estimate prices that queue too).
  EXPECT_EQ(timed_read(2000, 1000), remote + WireUs(1000));
  EXPECT_EQ(busy(1), kPositioningUs + DiskUs(1000));

  // Full replicas 0 and 2 down: the stale replica's prefix is all there is.
  dfs.KillDataNode(0);
  dfs.KillDataNode(2);
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  auto healed = rf->Read(9000, 2000);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, data.substr(9000, 1000));
}

// Readers on every node steer point reads (estimates reading the disk and
// NIC queues) while an appender's replication pipeline and the other
// readers reserve the same devices from their own threads; run under TSan.
TEST(DfsSteeringTest, ConcurrentSteeredReadersDuringAppends) {
  Dfs dfs(SmallBlocks(3, 4096));
  const std::string data = Pattern(64 * 300);
  auto wf = dfs.Create("/race", 0);
  ASSERT_TRUE((*wf)->Append(data.substr(0, 64)).ok());
  ASSERT_TRUE((*wf)->Sync().ok());

  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<int> reads{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&, t] {
      auto rf = dfs.Open("/race", t);
      if (!rf.ok()) {
        mismatches.fetch_add(1);
        started.fetch_add(1);
        return;
      }
      Random rnd(t + 1);
      sim::SimContext ctx;
      sim::SimContext::Scope scope(&ctx);
      started.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t records = (*rf)->Size() / 64;
        if (records == 0) continue;
        const uint64_t off = 64 * rnd.Uniform(records);
        auto piece = (*rf)->Read(off, 64);
        if (!piece.ok() || *piece != data.substr(off, 64)) {
          mismatches.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }
  while (started.load() < 3) std::this_thread::yield();
  {
    sim::SimContext ctx;
    sim::SimContext::Scope scope(&ctx);
    for (size_t off = 64; off < data.size(); off += 64) {
      ASSERT_TRUE((*wf)->Append(data.substr(off, 64)).ok());
      ASSERT_TRUE((*wf)->Sync().ok());
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// FileSystem adapter behaves like the generic interface.
TEST(DfsFileSystemTest, AdapterRoundTrip) {
  Dfs dfs(SmallBlocks(3));
  DfsFileSystem fs(&dfs, 0);
  auto wf = fs.NewWritableFile("/adapter");
  ASSERT_TRUE(wf.ok());
  ASSERT_TRUE((*wf)->Append("via adapter").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  EXPECT_TRUE(fs.Exists("/adapter"));
  EXPECT_EQ(*fs.FileSize("/adapter"), 11u);
  auto rf = fs.NewRandomAccessFile("/adapter");
  EXPECT_EQ(*(*rf)->Read(4, 7), "adapter");
}

TEST(DfsFileSystemTest, NewWritableFileTruncatesExisting) {
  Dfs dfs(SmallBlocks(3));
  DfsFileSystem fs(&dfs, 0);
  {
    auto wf = fs.NewWritableFile("/t");
    ASSERT_TRUE((*wf)->Append("old contents").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  }
  {
    auto wf = fs.NewWritableFile("/t");
    ASSERT_TRUE(wf.ok());
    ASSERT_TRUE((*wf)->Append("new").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  }
  EXPECT_EQ(*fs.FileSize("/t"), 3u);
}

}  // namespace
}  // namespace logbase::dfs
