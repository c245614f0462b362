// Elastic load balancing (src/balance/): load reports, placement scoring,
// live log-based migration (checkpoint-bounded replay, fencing, client
// re-routing), hot-tablet splitting, the policy loop, and crash recovery of
// the migration/split protocols across master failovers.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/balance/balancer.h"
#include "src/balance/migration.h"
#include "src/balance/placement.h"
#include "src/cluster/mini_cluster.h"
#include "src/master/meta_codec.h"

namespace logbase::balance {
namespace {

cluster::MiniClusterOptions SmallCluster(int nodes = 3, int masters = 1) {
  cluster::MiniClusterOptions options;
  options.num_nodes = nodes;
  options.num_masters = masters;
  options.server_template.segment_bytes = 1 << 20;
  return options;
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}

/// Tablets per server according to the master's assignment table.
std::map<int, int> CountsByServer(master::Master* m) {
  std::map<int, int> counts;
  for (const auto& [uid, location] : m->AssignmentsSnapshot()) {
    counts[location.server_id]++;
  }
  return counts;
}

TEST(PlacementTest, PickLeastLoadedOrdersByCountLoadThenId) {
  EXPECT_EQ(PickLeastLoaded({}), -1);
  // Fewest tablets wins regardless of load.
  EXPECT_EQ(PickLeastLoaded({{0, 3, 0.0}, {1, 1, 99.0}, {2, 2, 0.0}}), 1);
  // Equal counts: lowest load wins.
  EXPECT_EQ(PickLeastLoaded({{0, 2, 8.0}, {1, 2, 2.0}, {2, 2, 5.0}}), 1);
  // Full tie: lowest id.
  EXPECT_EQ(PickLeastLoaded({{2, 1, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}}), 0);
}

TEST(PlacementTest, CountImbalance) {
  EXPECT_DOUBLE_EQ(CountImbalance({}), 0.0);
  EXPECT_DOUBLE_EQ(CountImbalance({{0, 2, 0}, {1, 2, 0}}), 1.0);
  EXPECT_DOUBLE_EQ(CountImbalance({{0, 4, 0}, {1, 0, 0}}), 2.0);
}

TEST(LoadReportTest, CollectDrainsPerTabletWindows) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  auto schema =
      cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {"key0050"});
  ASSERT_TRUE(schema.ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "x", {}).ok());  // left range
  }
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(60 + i), "x", {}).ok());  // right range
  }

  uint64_t writes = 0;
  std::map<std::string, uint64_t> by_uid;
  for (int node = 0; node < cluster.num_nodes(); node++) {
    LoadReport report = cluster.server(node)->CollectLoadReport();
    EXPECT_EQ(report.server_id, node);
    for (const TabletLoad& t : report.tablets) {
      writes += t.write_ops;
      by_uid[t.uid] += t.write_ops;
    }
  }
  EXPECT_EQ(writes, 25u);
  // Two distinct tablets saw writes, with the skew preserved.
  uint64_t max_tablet = 0;
  for (const auto& [uid, n] : by_uid) max_tablet = std::max(max_tablet, n);
  EXPECT_EQ(max_tablet, 20u);

  // The window drained: a second collect reports nothing.
  for (int node = 0; node < cluster.num_nodes(); node++) {
    LoadReport report = cluster.server(node)->CollectLoadReport();
    for (const TabletLoad& t : report.tablets) EXPECT_EQ(t.ops(), 0u);
  }
}

TEST(MigrationTest, MoveTabletKeepsDataAndRoutes) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }

  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string uid = loc->descriptor.uid();
  const int from = loc->server_id;
  const int to = (from + 1) % cluster.num_nodes();

  MigrationCoordinator coordinator(cluster.active_master());
  ASSERT_TRUE(coordinator.MigrateTablet(uid, to).ok());

  // Assignment flipped and persisted; old owner released the tablet.
  auto moved = cluster.master()->GetAssignment(uid);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->server_id, to);
  EXPECT_EQ(cluster.server(from)->FindTablet(uid), nullptr);
  ASSERT_NE(cluster.server(to)->FindTablet(uid), nullptr);
  EXPECT_FALSE(cluster.server(to)->FindTablet(uid)->sealed());
  // The intent is gone.
  EXPECT_FALSE(cluster.coord()->znodes()->Exists(
      master::meta::MigratePath(uid)));

  // The same client (stale route cached) reads and writes through the
  // migrated tablet: the source's "unknown tablet" turns into a cache
  // invalidation + retry.
  for (int i = 0; i < 30; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found());
    EXPECT_EQ(r->value(), "v" + std::to_string(i));
  }
  EXPECT_TRUE(client->Put("t", 0, Key(1), "after-move", {}).ok());
}

TEST(MigrationTest, ReplayIsCheckpointBounded) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "x", {}).ok());
  }
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(cluster.server(loc->server_id)->Checkpoint().ok());
  for (int i = 100; i < 115; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "x", {}).ok());
  }

  // Adopt on another server directly: replay must cover only the log tail
  // past the checkpoint, not the whole history.
  const int to = (loc->server_id + 1) % cluster.num_nodes();
  tablet::RecoveryStats stats;
  ASSERT_TRUE(cluster.server(to)
                  ->AdoptTablet(loc->descriptor,
                                static_cast<uint32_t>(loc->server_id), &stats)
                  .ok());
  EXPECT_TRUE(stats.loaded_checkpoint);
  EXPECT_GE(stats.checkpoint_entries, 100u);
  EXPECT_GE(stats.redo_records, 15u);
  EXPECT_LT(stats.redo_records, 100u);
  (void)cluster.server(to)->CloseTablet(loc->descriptor.uid());
}

TEST(MigrationTest, SealedTabletRejectsWritesUntilUnsealed) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  tablet::TabletServer* server = cluster.server(loc->server_id);
  const std::string uid = loc->descriptor.uid();

  ASSERT_TRUE(server->Put(uid, Slice(Key(0)), Slice("pre")).ok());
  ASSERT_TRUE(server->SealTablet(uid).ok());
  Status s = server->Put(uid, Slice(Key(0)), Slice("x"));
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_NE(s.ToString().find("tablet sealed"), std::string::npos);
  // Reads still serve while sealed (the handover window is read-available).
  auto read = server->Get(uid, Slice(Key(0)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value, "pre");
  ASSERT_TRUE(server->UnsealTablet(uid).ok());
  EXPECT_TRUE(server->Put(uid, Slice(Key(0)), Slice("x")).ok());
}

TEST(SplitTest, SplitPreservesDataAndScans) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string parent_uid = loc->descriptor.uid();
  auto split_key = cluster.server(loc->server_id)->SuggestSplitKey(parent_uid);
  ASSERT_TRUE(split_key.ok());

  const int right_target = (loc->server_id + 1) % cluster.num_nodes();
  MigrationCoordinator coordinator(cluster.active_master());
  ASSERT_TRUE(
      coordinator.SplitTablet(parent_uid, *split_key, right_target).ok());

  // Parent assignment replaced by two children covering the halves.
  EXPECT_FALSE(cluster.master()->GetAssignment(parent_uid).ok());
  auto all = cluster.master()->LocateAll("t", 0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].descriptor.end_key, *split_key);
  EXPECT_EQ((*all)[1].descriptor.start_key, *split_key);
  EXPECT_EQ((*all)[1].server_id, right_target);

  // Every row reads back; a full scan sees all 60 across both children.
  for (int i = 0; i < 60; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found()) << Key(i);
    EXPECT_EQ(r->value(), "v" + std::to_string(i));
  }
  auto rows = client->Scan("t", 0, "", "", client::ReadOptions{});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 60u);
  // Writes land on the correct child and survive.
  ASSERT_TRUE(client->Put("t", 0, Key(5), "post-split", {}).ok());
  ASSERT_TRUE(client->Put("t", 0, Key(55), "post-split", {}).ok());
}

// Compaction swings index pointers with the same record routing recovery
// uses: the left child stays on the owner and holds rows logged under the
// parent's packed id, so the swing must reach it through the key range.
// The right child is not covered here: its index, on another server, still
// points into the owner's compacted log (an open defect, DESIGN.md §8.3).
TEST(SplitTest, OwnerCompactionAfterSplitKeepsLeftChild) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string parent_uid = loc->descriptor.uid();
  const int owner = loc->server_id;
  auto split_key = cluster.server(owner)->SuggestSplitKey(parent_uid);
  ASSERT_TRUE(split_key.ok());
  ASSERT_EQ(*split_key, Key(30));
  MigrationCoordinator coordinator(cluster.active_master());
  ASSERT_TRUE(coordinator
                  .SplitTablet(parent_uid, *split_key,
                               (owner + 1) % cluster.num_nodes())
                  .ok());

  ASSERT_TRUE(cluster.server(owner)->CompactLog().ok());
  for (int i = 0; i < 30; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(r->value(), "v" + std::to_string(i));
  }
}

TEST(SplitTest, SplitSurvivesServerRestart) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string parent_uid = loc->descriptor.uid();
  const int owner = loc->server_id;
  auto split_key = cluster.server(owner)->SuggestSplitKey(parent_uid);
  ASSERT_TRUE(split_key.ok());
  const int right_target = (owner + 1) % cluster.num_nodes();
  MigrationCoordinator coordinator(cluster.active_master());
  ASSERT_TRUE(
      coordinator.SplitTablet(parent_uid, *split_key, right_target).ok());
  // Post-split writes that only the children's recovery can replay.
  ASSERT_TRUE(client->Put("t", 0, Key(2), "post-split", {}).ok());
  ASSERT_TRUE(client->Put("t", 0, Key(38), "post-split", {}).ok());

  cluster.CrashServer(owner);
  cluster.CrashServer(right_target);
  ASSERT_TRUE(cluster.RestartServer(owner).ok());
  ASSERT_TRUE(cluster.RestartServer(right_target).ok());

  // The parent must not resurrect next to its children.
  for (int node : {owner, right_target}) {
    for (const tablet::TabletDescriptor& d : cluster.server(node)->Tablets()) {
      EXPECT_NE(d.uid(), parent_uid);
    }
  }
  auto r = client->Get("t", 0, Key(2), client::ReadOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->value(), "post-split");
  r = client->Get("t", 0, Key(38), client::ReadOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value(), "post-split");
  auto rows = client->Scan("t", 0, "", "", client::ReadOptions{});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 40u);
}

TEST(BalancerTest, MigratesLoadOffHotServer) {
  cluster::MiniClusterOptions options = SmallCluster();
  options.balancer.enable_splits = false;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(
      cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {"key0050"}).ok());
  auto client = cluster.NewClient(0);
  // All traffic on the left range: its server becomes the hot spot.
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i % 50), "x", {}).ok());
  }
  auto hot_loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(hot_loc.ok());

  ASSERT_TRUE(cluster.balancer()->Tick().ok());
  EXPECT_EQ(cluster.balancer()->stats().migrations, 1u);

  auto moved = cluster.master()->GetAssignment(hot_loc->descriptor.uid());
  ASSERT_TRUE(moved.ok());
  EXPECT_NE(moved->server_id, hot_loc->server_id);
  // Data survives the move.
  auto r = client->Get("t", 0, Key(3), client::ReadOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found());
}

TEST(BalancerTest, SplitsDominantTablet) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i % 80), "x", {}).ok());
  }
  ASSERT_TRUE(cluster.balancer()->Tick().ok());
  EXPECT_EQ(cluster.balancer()->stats().splits, 1u);
  auto all = cluster.master()->LocateAll("t", 0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  // The two halves ended up on different servers — that was the point.
  EXPECT_NE((*all)[0].server_id, (*all)[1].server_id);
  for (int i = 0; i < 80; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found());
  }
}

TEST(BalancerTest, NoopWhenBalancedOrCold) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()
                  ->CreateTable("t", {"v"}, {{"v"}}, {"key0033", "key0066"})
                  .ok());
  // Cold cluster: no ops at all.
  ASSERT_TRUE(cluster.balancer()->Tick().ok());
  EXPECT_EQ(cluster.balancer()->stats().migrations, 0u);
  EXPECT_EQ(cluster.balancer()->stats().splits, 0u);

  // Evenly loaded: still no action.
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i % 100), "x", {}).ok());
  }
  ASSERT_TRUE(cluster.balancer()->Tick().ok());
  EXPECT_EQ(cluster.balancer()->stats().migrations, 0u);
  EXPECT_EQ(cluster.balancer()->stats().splits, 0u);
}

// Crash the active master after a chosen protocol step; the standby must
// reconcile the surviving intent to exactly one owner.
class FailoverMidMigrationTest
    : public ::testing::TestWithParam<MigrationStep> {};

TEST_P(FailoverMidMigrationTest, StandbyReconcilesToOneOwner) {
  const MigrationStep crash_after = GetParam();
  cluster::MiniCluster cluster(SmallCluster(3, /*masters=*/2));
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* first = cluster.active_master();
  ASSERT_EQ(first, cluster.masters(0));
  ASSERT_TRUE(first->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  auto loc = first->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string uid = loc->descriptor.uid();
  const int from = loc->server_id;
  const int to = (from + 1) % cluster.num_nodes();

  MigrationCoordinator coordinator(first);
  coordinator.set_step_hook([&](MigrationStep step) {
    if (step == crash_after) cluster.CrashMaster(0);
  });
  Status s = coordinator.MigrateTablet(uid, to);
  EXPECT_FALSE(s.ok());  // leadership lost mid-protocol

  // Standby takes over and reconciles the intent.
  master::Master* active = cluster.active_master();
  ASSERT_NE(active, nullptr);
  ASSERT_EQ(active, cluster.masters(1));

  const bool committed = crash_after >= MigrationStep::kAssignmentFlipped;
  auto assignment = active->GetAssignment(uid);
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment->server_id, committed ? to : from);
  // Exactly one live owner hosts the tablet, unsealed; the intent is gone.
  const int owner = assignment->server_id;
  const int other = owner == from ? to : from;
  ASSERT_NE(cluster.server(owner)->FindTablet(uid), nullptr);
  EXPECT_FALSE(cluster.server(owner)->FindTablet(uid)->sealed());
  EXPECT_EQ(cluster.server(other)->FindTablet(uid), nullptr);
  EXPECT_FALSE(cluster.coord()->znodes()->Exists(
      master::meta::MigratePath(uid)));

  // No acked write was lost, and new writes flow.
  for (int i = 0; i < 25; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found());
    EXPECT_EQ(r->value(), "v" + std::to_string(i));
  }
  EXPECT_TRUE(client->Put("t", 0, Key(0), "post-failover", {}).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Steps, FailoverMidMigrationTest,
    ::testing::Values(MigrationStep::kIntentPersisted,
                      MigrationStep::kSourceSealed,
                      MigrationStep::kCheckpointFlushed,
                      MigrationStep::kDestAdopted,
                      MigrationStep::kAssignmentFlipped,
                      MigrationStep::kSourceClosed),
    [](const ::testing::TestParamInfo<MigrationStep>& info) {
      std::string name = MigrationStepName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FailoverScatterTest, DeadServersTabletsSpreadAcrossSurvivors) {
  cluster::MiniCluster cluster(SmallCluster(5));
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<std::string> splits;
  for (int i = 1; i < 10; i++) splits.push_back(Key(i * 10));
  ASSERT_TRUE(
      cluster.master()->CreateTable("t", {"v"}, {{"v"}}, splits).ok());
  // 10 ranges over 5 servers: 2 tablets each.
  auto before = CountsByServer(cluster.master());
  ASSERT_EQ(before.size(), 5u);
  for (const auto& [server, count] : before) EXPECT_EQ(count, 2);

  auto client = cluster.NewClient(0);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "x", {}).ok());
  }

  cluster.CrashServer(4);
  auto handled = cluster.master()->DetectAndHandleFailures();
  ASSERT_TRUE(handled.ok());
  EXPECT_EQ(*handled, 1);

  // The dead server's two tablets scattered to two *different* survivors
  // (round-robin from a fixed origin would also do this, but load-scored
  // placement must: each adoption bumps the target's count).
  auto after = CountsByServer(cluster.master());
  EXPECT_EQ(after.count(4), 0u);
  int total = 0;
  int max_count = 0;
  for (const auto& [server, count] : after) {
    total += count;
    max_count = std::max(max_count, count);
  }
  EXPECT_EQ(total, 10);
  EXPECT_EQ(max_count, 3);  // 3,3,2,2 — not 4,2,2,2

  for (int i = 0; i < 100; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found());
  }
}

TEST(PlacementAwareMasterTest, NewTablesAvoidLoadedServers) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  // Three single-tablet tables land on three different servers (the old
  // modulo placement would have stacked them all on server 0).
  std::set<int> used;
  for (const std::string& name : {"a", "b", "c"}) {
    ASSERT_TRUE(cluster.master()->CreateTable(name, {"v"}, {{"v"}}, {}).ok());
    auto all = cluster.master()->LocateAll(name, 0);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), 1u);
    used.insert((*all)[0].server_id);
  }
  EXPECT_EQ(used.size(), 3u);
}

TEST(PlacementAwareMasterTest, AddColumnGroupColocatesWithExistingRanges) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()
                  ->CreateTable("t", {"a", "b"}, {{"a"}}, {"key0050"})
                  .ok());
  ASSERT_TRUE(cluster.master()->AddColumnGroup("t", {"b"}).ok());
  auto g0 = cluster.master()->LocateAll("t", 0);
  auto g1 = cluster.master()->LocateAll("t", 1);
  ASSERT_TRUE(g0.ok());
  ASSERT_TRUE(g1.ok());
  ASSERT_EQ(g0->size(), g1->size());
  for (size_t i = 0; i < g0->size(); i++) {
    EXPECT_EQ((*g0)[i].server_id, (*g1)[i].server_id);
  }
}

}  // namespace
}  // namespace logbase::balance
