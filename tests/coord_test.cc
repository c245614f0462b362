// Tests for the coordination service: znode semantics, sessions/ephemerals,
// watches, master election, distributed locks, timestamp oracle.

#include <gtest/gtest.h>

#include <atomic>

#include "src/coord/coordination_service.h"
#include "src/coord/lock_manager.h"
#include "src/coord/master_election.h"
#include "src/coord/znode_tree.h"
#include "src/obs/metrics.h"

namespace logbase::coord {
namespace {

TEST(ZnodeTreeTest, CreateGetSetDelete) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  auto path = tree.Create(s, "/a", "v1", CreateMode::kPersistent);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/a");
  EXPECT_EQ(*tree.Get("/a"), "v1");
  ASSERT_TRUE(tree.Set("/a", "v2").ok());
  EXPECT_EQ(*tree.Get("/a"), "v2");
  ASSERT_TRUE(tree.Delete("/a").ok());
  EXPECT_FALSE(tree.Exists("/a"));
}

TEST(ZnodeTreeTest, CreateRequiresParent) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  EXPECT_TRUE(tree.Create(s, "/a/b", "", CreateMode::kPersistent)
                  .status()
                  .IsNotFound());
  ASSERT_TRUE(tree.Create(s, "/a", "", CreateMode::kPersistent).ok());
  EXPECT_TRUE(tree.Create(s, "/a/b", "", CreateMode::kPersistent).ok());
}

TEST(ZnodeTreeTest, CreateRejectsDuplicates) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/dup", "", CreateMode::kPersistent).ok());
  EXPECT_FALSE(tree.Create(s, "/dup", "", CreateMode::kPersistent).ok());
}

TEST(ZnodeTreeTest, DeleteRefusesNodeWithChildren) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/p", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(tree.Create(s, "/p/c", "", CreateMode::kPersistent).ok());
  EXPECT_FALSE(tree.Delete("/p").ok());
  ASSERT_TRUE(tree.Delete("/p/c").ok());
  EXPECT_TRUE(tree.Delete("/p").ok());
}

TEST(ZnodeTreeTest, SequentialNodesGetIncreasingSuffixes) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/q", "", CreateMode::kPersistent).ok());
  auto a = tree.Create(s, "/q/n_", "", CreateMode::kPersistentSequential);
  auto b = tree.Create(s, "/q/n_", "", CreateMode::kPersistentSequential);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(*a, *b);
  EXPECT_NE(*a, "/q/n_");
}

TEST(ZnodeTreeTest, GetChildrenSorted) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/d", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(tree.Create(s, "/d/c", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(tree.Create(s, "/d/a", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(tree.Create(s, "/d/b", "", CreateMode::kPersistent).ok());
  // Grandchildren are not listed.
  ASSERT_TRUE(tree.Create(s, "/d/a/x", "", CreateMode::kPersistent).ok());
  auto children = tree.GetChildren("/d");
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ZnodeTreeTest, SessionCloseRemovesEphemerals) {
  ZnodeTree tree;
  SessionId s1 = tree.CreateSession();
  SessionId s2 = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s1, "/e1", "", CreateMode::kEphemeral).ok());
  ASSERT_TRUE(tree.Create(s2, "/e2", "", CreateMode::kEphemeral).ok());
  ASSERT_TRUE(tree.Create(s1, "/p", "", CreateMode::kPersistent).ok());
  tree.CloseSession(s1);
  EXPECT_FALSE(tree.Exists("/e1"));
  EXPECT_TRUE(tree.Exists("/e2"));
  EXPECT_TRUE(tree.Exists("/p"));  // persistent survives its creator
  EXPECT_FALSE(tree.SessionAlive(s1));
  EXPECT_TRUE(tree.SessionAlive(s2));
}

TEST(ZnodeTreeTest, EphemeralCreateWithDeadSessionFails) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  tree.CloseSession(s);
  EXPECT_FALSE(tree.Create(s, "/e", "", CreateMode::kEphemeral).ok());
}

TEST(ZnodeTreeTest, NodeWatchFiresOnceOnSet) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/w", "", CreateMode::kPersistent).ok());
  std::atomic<int> fired{0};
  tree.WatchNode("/w", [&fired](const std::string&) { fired++; });
  ASSERT_TRUE(tree.Set("/w", "1").ok());
  ASSERT_TRUE(tree.Set("/w", "2").ok());  // one-shot: no second fire
  EXPECT_EQ(fired.load(), 1);
}

TEST(ZnodeTreeTest, NodeWatchFiresOnDelete) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/w", "", CreateMode::kPersistent).ok());
  std::atomic<int> fired{0};
  tree.WatchNode("/w", [&fired](const std::string&) { fired++; });
  ASSERT_TRUE(tree.Delete("/w").ok());
  EXPECT_EQ(fired.load(), 1);
}

TEST(ZnodeTreeTest, ChildWatchFiresOnCreateAndSessionExpiry) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/parent", "", CreateMode::kPersistent).ok());
  std::atomic<int> fired{0};
  tree.WatchChildren("/parent", [&fired](const std::string&) { fired++; });
  ASSERT_TRUE(tree.Create(s, "/parent/kid", "", CreateMode::kEphemeral).ok());
  EXPECT_EQ(fired.load(), 1);
  tree.WatchChildren("/parent", [&fired](const std::string&) { fired++; });
  tree.CloseSession(s);  // ephemeral kid disappears
  EXPECT_EQ(fired.load(), 2);
}

TEST(CoordinationServiceTest, TimestampsAreUniqueAndMonotonic) {
  CoordinationService coord;
  uint64_t prev = 0;
  for (int i = 0; i < 1000; i++) {
    uint64_t ts = coord.ReserveTimestamps(0, 1);
    EXPECT_GT(ts, prev);
    prev = ts;
  }
  EXPECT_EQ(coord.LatestTimestamp(), prev);
}

TEST(CoordinationServiceTest, ReservedRangesDoNotOverlap) {
  CoordinationService coord;
  uint64_t a = coord.ReserveTimestamps(0, 100);
  uint64_t b = coord.ReserveTimestamps(1, 100);
  EXPECT_GE(b, a + 100);
  EXPECT_GT(coord.ReserveTimestamps(0, 1), b + 99);
}

TEST(CoordinationServiceTest, RoundTripChargesVirtualTime) {
  sim::NetworkModel net(2);
  CoordinationService coord(&net, 0);
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  coord.ReserveTimestamps(1, 1);
  EXPECT_GT(ctx.now(), 0);
}

TEST(MasterElectionTest, FirstCandidateWins) {
  CoordinationService coord;
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  MasterElection m1(&coord, s1, "master-1", 0);
  MasterElection m2(&coord, s2, "master-2", 1);
  ASSERT_TRUE(m1.Campaign().ok());
  ASSERT_TRUE(m2.Campaign().ok());
  EXPECT_TRUE(m1.IsLeader());
  EXPECT_FALSE(m2.IsLeader());
  EXPECT_EQ(*m1.Leader(), "master-1");
}

TEST(MasterElectionTest, FailoverOnSessionDeath) {
  CoordinationService coord;
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  MasterElection m1(&coord, s1, "master-1", 0);
  MasterElection m2(&coord, s2, "master-2", 1);
  ASSERT_TRUE(m1.Campaign().ok());
  ASSERT_TRUE(m2.Campaign().ok());
  coord.CloseSession(s1);  // active master dies
  EXPECT_TRUE(m2.IsLeader());
  EXPECT_EQ(*m2.Leader(), "master-2");
}

TEST(MasterElectionTest, ResignHandsOver) {
  CoordinationService coord;
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  MasterElection m1(&coord, s1, "a", 0);
  MasterElection m2(&coord, s2, "b", 1);
  ASSERT_TRUE(m1.Campaign().ok());
  ASSERT_TRUE(m2.Campaign().ok());
  m1.Resign();
  EXPECT_FALSE(m1.IsLeader());
  EXPECT_TRUE(m2.IsLeader());
}

TEST(LockManagerTest, MutualExclusion) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  EXPECT_TRUE(locks.LockAllAndStamp(s1, {"key1"}, "txn-1", 0).ok());
  EXPECT_TRUE(
      locks.LockAllAndStamp(s2, {"key1"}, "txn-2", 1).status().IsBusy());
  EXPECT_EQ(*locks.Holder("key1"), "txn-1");
  locks.UnlockAll(s1, {"key1"}, "txn-1", 0);
  EXPECT_TRUE(locks.LockAllAndStamp(s2, {"key1"}, "txn-2", 1).ok());
}

TEST(LockManagerTest, ReentrantForSameOwner) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s = coord.CreateSession(0);
  auto first = locks.LockAllAndStamp(s, {"k"}, "txn-9", 0);
  auto again = locks.LockAllAndStamp(s, {"k", "j"}, "txn-9", 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(again.ok());
  EXPECT_GT(*again, *first);
  // The same owner name from another session is a different owner.
  SessionId other = coord.CreateSession(1);
  EXPECT_TRUE(
      locks.LockAllAndStamp(other, {"k"}, "txn-9", 1).status().IsBusy());
}

TEST(LockManagerTest, UnlockByNonOwnerIsIgnored) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s = coord.CreateSession(0);
  SessionId intruder = coord.CreateSession(1);
  EXPECT_TRUE(locks.LockAllAndStamp(s, {"k"}, "owner", 0).ok());
  locks.UnlockAll(s, {"k"}, "impostor", 0);
  locks.UnlockAll(intruder, {"k"}, "owner", 1);
  EXPECT_EQ(*locks.Holder("k"), "owner");
}

TEST(LockManagerTest, SessionDeathReleasesLocks) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  EXPECT_TRUE(locks.LockAllAndStamp(s1, {"k", "j"}, "txn-1", 0).ok());
  coord.CloseSession(s1);  // crashed transaction holder
  EXPECT_TRUE(locks.LockAllAndStamp(s2, {"k", "j"}, "txn-2", 1).ok());
}

TEST(LockManagerTest, BinaryKeysAreEscaped) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s = coord.CreateSession(0);
  std::string weird("a/b\0c", 5);
  EXPECT_TRUE(locks.LockAllAndStamp(s, {weird}, "o", 0).ok());
  EXPECT_TRUE(locks.LockAllAndStamp(s, {weird}, "other", 0).status().IsBusy());
}

// ZooKeeper `multi` semantics: one key held elsewhere fails the whole lock
// set. Nothing is created, no timestamp is drawn, and the failed attempt
// still costs its one round trip.
TEST(LockManagerTest, MultiIsAllOrNothing) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId holder = coord.CreateSession(0);
  SessionId s = coord.CreateSession(1);
  ASSERT_TRUE(locks.LockAllAndStamp(holder, {"b"}, "txn-holder", 0).ok());
  const uint64_t latest = coord.LatestTimestamp();
  obs::Counter* round_trips =
      obs::MetricsRegistry::Global().counter("coord.round_trips");
  const uint64_t trips_before = round_trips->value();

  auto stamped = locks.LockAllAndStamp(s, {"a", "b", "c"}, "txn-1", 1);
  EXPECT_TRUE(stamped.status().IsBusy());
  EXPECT_EQ(round_trips->value() - trips_before, 1u);
  EXPECT_TRUE(locks.Holder("a").status().IsNotFound());
  EXPECT_TRUE(locks.Holder("c").status().IsNotFound());
  EXPECT_EQ(*locks.Holder("b"), "txn-holder");
  EXPECT_EQ(coord.LatestTimestamp(), latest);

  // Once "b" is free the same multi takes all three and stamps once.
  locks.UnlockAll(holder, {"b"}, "txn-holder", 0);
  stamped = locks.LockAllAndStamp(s, {"a", "b", "c"}, "txn-1", 1);
  ASSERT_TRUE(stamped.ok());
  EXPECT_EQ(*stamped, latest + 1);
  EXPECT_EQ(coord.LatestTimestamp(), latest + 1);
  for (const char* key : {"a", "b", "c"}) {
    EXPECT_EQ(*locks.Holder(key), "txn-1");
  }
  locks.UnlockAll(s, {"a", "b", "c"}, "txn-1", 1);
  for (const char* key : {"a", "b", "c"}) {
    EXPECT_TRUE(locks.Holder(key).status().IsNotFound());
  }
}

}  // namespace
}  // namespace logbase::coord
