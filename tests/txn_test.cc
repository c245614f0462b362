// Tests for MVOCC transactions (paper §3.7): snapshot isolation semantics
// (every ANSI anomaly except write skew prevented), validation with write
// locks taken in one coordination multi, read-only fast path, 2PC across
// servers, and crash atomicity.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/cluster/mini_cluster.h"
#include "src/dfs/dfs.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/costs.h"
#include "src/sim/sim_context.h"
#include "src/tablet/tablet_server.h"
#include "src/txn/lock_table.h"
#include "src/txn/transaction_manager.h"

namespace logbase::txn {
namespace {

using tablet::TabletDescriptor;
using tablet::TabletServer;
using tablet::TabletServerOptions;

struct TxnFixture {
  dfs::Dfs dfs{[] {
    dfs::DfsOptions o;
    o.num_nodes = 3;
    return o;
  }()};
  coord::CoordinationService coord;
  std::vector<std::unique_ptr<TabletServer>> servers;
  std::unique_ptr<TransactionManager> manager;
  std::string uid0, uid1;  // tablets on server 0 and server 1

  /// `options[i]`, when given, configures server i.
  explicit TxnFixture(int num_servers = 2,
                      std::vector<TabletServerOptions> options = {}) {
    options.resize(num_servers);
    for (int i = 0; i < num_servers; i++) {
      options[i].server_id = i;
      servers.push_back(
          std::make_unique<TabletServer>(options[i], &dfs, &coord));
      EXPECT_TRUE(servers.back()->Start().ok());
    }
    TabletDescriptor d0;
    d0.table_id = 1;
    d0.range_id = 0;
    uid0 = d0.uid();
    EXPECT_TRUE(servers[0]->OpenTablet(d0).ok());
    if (num_servers > 1) {
      TabletDescriptor d1;
      d1.table_id = 1;
      d1.range_id = 1;
      uid1 = d1.uid();
      EXPECT_TRUE(servers[1]->OpenTablet(d1).ok());
    }
    manager = std::make_unique<TransactionManager>(
        &coord, /*client_node=*/0, [this](const std::string& uid) {
          for (auto& server : servers) {
            if (server->FindTablet(uid) != nullptr) return server.get();
          }
          return static_cast<TabletServer*>(nullptr);
        });
  }
};

TEST(TxnTest, CommitMakesWritesVisible) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "k", "committed").ok());
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  EXPECT_EQ(txn->state(), Transaction::State::kCommitted);
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "k")->value, "committed");
}

TEST(TxnTest, UncommittedWritesInvisible) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "k", "pending").ok());
  // Before commit: not visible to direct reads.
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "k").status().IsNotFound());
  f.manager->Abort(txn.get());
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "k").status().IsNotFound());
  EXPECT_EQ(txn->state(), Transaction::State::kAborted);
}

TEST(TxnTest, ReadYourOwnWrites) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "k", "mine").ok());
  auto read = f.manager->Read(txn.get(), f.uid0, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "mine");
  f.manager->Abort(txn.get());
}

TEST(TxnTest, ReadOnlyAlwaysCommits) {
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "v").ok());
  // Even with a concurrent writer on the same key.
  auto reader = f.manager->Begin();
  auto writer = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(writer.get(), f.uid0, "k", "v2").ok());
  ASSERT_TRUE(f.manager->Commit(writer.get()).ok());
  ASSERT_TRUE(f.manager->Read(reader.get(), f.uid0, "k").ok());
  EXPECT_TRUE(f.manager->Commit(reader.get()).ok());
  EXPECT_EQ(f.manager->stats().committed.load(), 2u);
}

TEST(TxnTest, SnapshotReadsIgnoreLaterCommits) {
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "original").ok());
  auto old_txn = f.manager->Begin();  // snapshot fixed here

  auto writer = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(writer.get(), f.uid0, "k", "newer").ok());
  ASSERT_TRUE(f.manager->Commit(writer.get()).ok());

  // Fuzzy read prevented: old_txn still sees the original.
  auto read = f.manager->Read(old_txn.get(), f.uid0, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "original");
  EXPECT_TRUE(f.manager->Commit(old_txn.get()).ok());
}

TEST(TxnTest, LostUpdatePrevented) {
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "counter", "10").ok());
  auto t1 = f.manager->Begin();
  auto t2 = f.manager->Begin();
  // Both read-modify-write the same record concurrently.
  ASSERT_TRUE(f.manager->Read(t1.get(), f.uid0, "counter").ok());
  ASSERT_TRUE(f.manager->Read(t2.get(), f.uid0, "counter").ok());
  ASSERT_TRUE(f.manager->Write(t1.get(), f.uid0, "counter", "11").ok());
  ASSERT_TRUE(f.manager->Write(t2.get(), f.uid0, "counter", "11").ok());
  ASSERT_TRUE(f.manager->Commit(t1.get()).ok());
  // First committer wins; the second must abort on validation.
  Status second = f.manager->Commit(t2.get());
  EXPECT_TRUE(second.IsAborted());
  EXPECT_EQ(f.manager->stats().validation_failures.load(), 1u);
}

TEST(TxnTest, WriteSkewPermitted) {
  // SI's known anomaly (paper Figure 5): disjoint write sets with crossed
  // reads both commit.
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "x", "1").ok());
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "y", "1").ok());
  auto t1 = f.manager->Begin();
  auto t2 = f.manager->Begin();
  ASSERT_TRUE(f.manager->Read(t1.get(), f.uid0, "x").ok());
  ASSERT_TRUE(f.manager->Read(t2.get(), f.uid0, "y").ok());
  ASSERT_TRUE(f.manager->Write(t1.get(), f.uid0, "y", "0").ok());
  ASSERT_TRUE(f.manager->Write(t2.get(), f.uid0, "x", "0").ok());
  EXPECT_TRUE(f.manager->Commit(t1.get()).ok());
  EXPECT_TRUE(f.manager->Commit(t2.get()).ok());  // write skew: allowed
}

TEST(TxnTest, DirtyWritePrevented) {
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "base").ok());
  auto t1 = f.manager->Begin();
  auto t2 = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(t1.get(), f.uid0, "k", "one").ok());
  ASSERT_TRUE(f.manager->Write(t2.get(), f.uid0, "k", "two").ok());
  ASSERT_TRUE(f.manager->Commit(t1.get()).ok());
  EXPECT_TRUE(f.manager->Commit(t2.get()).IsAborted());
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "k")->value, "one");
}

TEST(TxnTest, TransactionalDelete) {
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "v").ok());
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Delete(txn.get(), f.uid0, "k").ok());
  // Own delete visible inside the transaction.
  EXPECT_TRUE(f.manager->Read(txn.get(), f.uid0, "k").status().IsNotFound());
  // Still visible outside until commit.
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "k").ok());
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "k").status().IsNotFound());
}

TEST(TxnTest, MultiServerTransactionCommitsAtomically) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "left", "L").ok());
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid1, "right", "R").ok());
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "left")->value, "L");
  EXPECT_EQ(f.servers[1]->Get(f.uid1, "right")->value, "R");
  // Same commit timestamp on both participants (global order, §3.7.1).
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "left")->timestamp,
            f.servers[1]->Get(f.uid1, "right")->timestamp);
}

TEST(TxnTest, MultiServerAbortLeavesNothingVisible) {
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "contended", "v0").ok());
  auto t1 = f.manager->Begin();
  ASSERT_TRUE(f.manager->Read(t1.get(), f.uid0, "contended").ok());
  ASSERT_TRUE(f.manager->Write(t1.get(), f.uid0, "contended", "t1").ok());
  ASSERT_TRUE(f.manager->Write(t1.get(), f.uid1, "other", "t1").ok());
  // A conflicting single-server commit invalidates t1.
  auto t2 = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(t2.get(), f.uid0, "contended", "t2").ok());
  ASSERT_TRUE(f.manager->Commit(t2.get()).ok());
  EXPECT_TRUE(f.manager->Commit(t1.get()).IsAborted());
  // Neither of t1's writes landed.
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "contended")->value, "t2");
  EXPECT_TRUE(f.servers[1]->Get(f.uid1, "other").status().IsNotFound());
}

TEST(TxnTest, CommittedTransactionSurvivesCrashRecovery) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "durable", "yes").ok());
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  f.servers[0]->Crash();
  ASSERT_TRUE(f.servers[0]->Start().ok());
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "durable")->value, "yes");
}

TEST(TxnTest, CompactionDropsUncommittedTxnData) {
  // Simulate a transaction that persisted data records but whose
  // coordinator died before any COMMIT record: compaction must reclaim them.
  TxnFixture f(1);
  tablet::WritePath* path = f.servers[0]->write_path();
  tablet::WriteSet share;
  share.txn_id = 999;  // no commit record will ever exist
  share.commit_ts = 12345;
  share.Put(f.uid0, "orphan", "ghost");
  auto staged = path->Stage(std::move(share));
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(path->MakeDurable(&*staged).ok());
  path->Release(&*staged);
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "real", "v").ok());

  tablet::CompactionStats stats;
  ASSERT_TRUE(f.servers[0]->CompactLog({}, &stats).ok());
  EXPECT_EQ(stats.dropped_uncommitted, 1u);
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "orphan").status().IsNotFound());
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "real").ok());
}

TEST(TxnTest, UncommittedTxnDataIgnoredByRecovery) {
  TxnFixture f(1);
  tablet::WritePath* path = f.servers[0]->write_path();
  tablet::WriteSet share;
  share.txn_id = 777;
  share.commit_ts = 1;
  share.Put(f.uid0, "phantom", "boo");
  auto staged = path->Stage(std::move(share));
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(path->MakeDurable(&*staged).ok());
  f.servers[0]->Crash();
  ASSERT_TRUE(f.servers[0]->Start().ok());
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "phantom").status().IsNotFound());
}

TEST(TxnTest, SerializableModeAbortsWriteSkew) {
  TxnFixture f(1);
  txn::TransactionManagerOptions serializable;
  serializable.serializable = true;
  TransactionManager strict(
      &f.coord, 0,
      [&f](const std::string& uid) {
        return f.servers[0]->FindTablet(uid) != nullptr ? f.servers[0].get()
                                                        : nullptr;
      },
      serializable);
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "x", "1").ok());
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "y", "1").ok());
  auto t1 = strict.Begin();
  auto t2 = strict.Begin();
  ASSERT_TRUE(strict.Read(t1.get(), f.uid0, "x").ok());
  ASSERT_TRUE(strict.Read(t2.get(), f.uid0, "y").ok());
  ASSERT_TRUE(strict.Write(t1.get(), f.uid0, "y", "0").ok());
  ASSERT_TRUE(strict.Write(t2.get(), f.uid0, "x", "0").ok());
  EXPECT_TRUE(strict.Commit(t1.get()).ok());
  // Under the §3.7.1 serializable option the rw-antidependency is caught:
  // t2's read of y was invalidated by t1's committed write.
  EXPECT_TRUE(strict.Commit(t2.get()).IsAborted());
}

TEST(TxnTest, SerializableReadOnlyStillCommitsWithoutLocks) {
  TxnFixture f(1);
  txn::TransactionManagerOptions serializable;
  serializable.serializable = true;
  TransactionManager strict(
      &f.coord, 0,
      [&f](const std::string& uid) {
        return f.servers[0]->FindTablet(uid) != nullptr ? f.servers[0].get()
                                                        : nullptr;
      },
      serializable);
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "v").ok());
  auto reader = strict.Begin();
  ASSERT_TRUE(strict.Read(reader.get(), f.uid0, "k").ok());
  // A concurrent writer does not abort the read-only transaction.
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "v2").ok());
  EXPECT_TRUE(strict.Commit(reader.get()).ok());
}

// A committed 2-key write transaction makes exactly two coordination round
// trips, whether it has one participant or two: the multi that takes the
// locks and draws the commit timestamp, and the release.
TEST(TxnTest, CommitCostsTwoRoundTrips) {
  TxnFixture f;
  obs::Counter* round_trips =
      obs::MetricsRegistry::Global().counter("coord.round_trips");
  for (bool two_participants : {false, true}) {
    auto txn = f.manager->Begin();
    ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "x", "1").ok());
    ASSERT_TRUE(f.manager
                    ->Write(txn.get(), two_participants ? f.uid1 : f.uid0,
                            "y", "2")
                    .ok());
    const uint64_t before = round_trips->value();
    ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
    EXPECT_EQ(round_trips->value() - before, 2u)
        << (two_participants ? "two participants" : "one participant");
  }
}

// The commit critical path in virtual time on idle devices: one
// coordination round trip, then the slower participant's data append (both
// run at once), then the COMMIT appends one after another. The release is
// off the path.
TEST(TxnTest, TwoParticipantCommitCriticalPath) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "a", "left").ok());
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid1, "b", "right").ok());

  const sim::VirtualTime start = 1'000'000;
  sim::SimContext ctx(start);
  obs::OpTracer tracer;
  {
    sim::SimContext::Scope sim_scope(&ctx);
    obs::OpTracer::Scope trace_scope(&tracer);
    ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  }

  std::vector<obs::SpanRecord> submits, appends;
  sim::VirtualTime lock_wait = 0;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name == "log.append.submit") submits.push_back(span);
    if (span.name == "log.append") appends.push_back(span);
    if (span.name == "txn.lock.wait") lock_wait = span.elapsed_us();
  }
  // Two data appends, then two COMMIT appends.
  ASSERT_EQ(submits.size(), 4u);
  ASSERT_EQ(appends.size(), 4u);
  // One round trip (the fixture's ensemble has no network model).
  EXPECT_EQ(lock_wait, sim::costs::kCoordinationUs);
  // Phase one fans out: both data appends start together and it ends with
  // the slower one (both logs live on the same three DFS disks, so the
  // second queues behind the first)...
  EXPECT_EQ(submits[0].begin_us, submits[1].begin_us);
  const sim::VirtualTime phase_one_end =
      std::max(appends[0].end_us, appends[1].end_us);
  // ...and phase two sends the COMMITs one at a time after it.
  EXPECT_GE(submits[2].begin_us, phase_one_end);
  EXPECT_GE(submits[3].begin_us, appends[2].end_us);

  const sim::VirtualTime path = lock_wait +
                                (phase_one_end - submits[0].begin_us) +
                                (appends[2].end_us - submits[2].begin_us) +
                                (appends[3].end_us - submits[3].begin_us);
  const sim::VirtualTime elapsed = ctx.now() - start;
  EXPECT_GE(elapsed, path);
  // What is left is bookkeeping CPU, far below one more round trip or a
  // second data append.
  EXPECT_LE(elapsed, path + 20) << "elapsed " << elapsed << " path " << path;
}

// A participant that went down after validation fails phase one. The other
// participant's data append still runs; without a COMMIT it stays
// invisible, also after both servers restart.
TEST(TxnTest, PhaseOneFailureStaysInvisible) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "down", "x").ok());
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid1, "live", "y").ok());
  // Stopped, server 0 still holds its tablets, so validation passes and
  // only its append fails. It comes first in participant order.
  ASSERT_TRUE(f.servers[0]->Stop().ok());

  obs::OpTracer tracer;
  {
    obs::OpTracer::Scope trace_scope(&tracer);
    EXPECT_FALSE(f.manager->Commit(txn.get()).ok());
  }
  EXPECT_EQ(txn->state(), Transaction::State::kAborted);
  // Server 1's data append ran (server 0's failed before its log).
  EXPECT_EQ(tracer.CountOf("log.append"), 1);
  EXPECT_TRUE(f.servers[1]->Get(f.uid1, "live").status().IsNotFound());

  for (auto& server : f.servers) {
    server->Crash();
    ASSERT_TRUE(server->Start().ok());
  }
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "down").status().IsNotFound());
  EXPECT_TRUE(f.servers[1]->Get(f.uid1, "live").status().IsNotFound());
  // The locks were released: the same keys commit afterwards.
  auto retry = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(retry.get(), f.uid0, "down", "x2").ok());
  ASSERT_TRUE(f.manager->Write(retry.get(), f.uid1, "live", "y2").ok());
  ASSERT_TRUE(f.manager->Commit(retry.get()).ok());
  EXPECT_EQ(f.servers[1]->Get(f.uid1, "live")->value, "y2");
}

// A COMMIT is never shed. Admission on participant 1 admits one op: the
// share stages on it, and phase two's COMMITs pass the gate they no longer
// go through, so the transaction commits on both participants and says so.
TEST(TxnTest, ShedCommitNeverSplitsTransaction) {
  std::vector<TabletServerOptions> options(2);
  options[1].admission.enabled = true;
  options[1].admission.server_limits.ops_per_sec = 0.001;
  options[1].admission.server_limits.ops_burst = 1;
  TxnFixture f(2, options);
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "a", "left").ok());
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid1, "b", "right").ok());
  const Status committed = f.manager->Commit(txn.get());
  EXPECT_TRUE(committed.ok()) << committed.ToString();

  // LatestVersion bypasses admission, so the gated server can be read.
  auto visible = [&f](int server, const std::string& uid, const char* key) {
    auto version = f.servers[server]->LatestVersion(uid, key);
    EXPECT_TRUE(version.ok());
    return version.ok() && *version != 0;
  };
  EXPECT_EQ(visible(0, f.uid0, "a"), committed.ok());
  EXPECT_EQ(visible(1, f.uid1, "b"), committed.ok());
  for (auto& server : f.servers) {
    server->Crash();
    ASSERT_TRUE(server->Start().ok());
  }
  EXPECT_EQ(visible(0, f.uid0, "a"), committed.ok());
  EXPECT_EQ(visible(1, f.uid1, "b"), committed.ok());
}

// A migration seal racing a commit never half-publishes it. The resolver
// seals participant 1's tablet the first time commit routes to it; the
// commit is then all-or-nothing on both participants, agrees with what
// Commit returned, and stays so after both servers restart.
TEST(TxnTest, SealDuringCommitNeverHalfPublishes) {
  TxnFixture f;
  bool armed = false;
  TransactionManager manager(
      &f.coord, /*client_node=*/0, [&f, &armed](const std::string& uid) {
        TabletServer* owner = nullptr;
        for (auto& server : f.servers) {
          if (server->FindTablet(uid) != nullptr) owner = server.get();
        }
        if (armed && uid == f.uid1) {
          armed = false;
          EXPECT_TRUE(owner->SealTablet(uid).ok());
        }
        return owner;
      });
  auto txn = manager.Begin();
  ASSERT_TRUE(manager.Write(txn.get(), f.uid0, "a", "left").ok());
  ASSERT_TRUE(manager.Write(txn.get(), f.uid1, "b", "right").ok());
  armed = true;
  const Status committed = manager.Commit(txn.get());
  EXPECT_FALSE(armed);

  auto visible = [&f](int server, const std::string& uid, const char* key) {
    return f.servers[server]->Get(uid, key).ok();
  };
  EXPECT_EQ(visible(0, f.uid0, "a"), committed.ok()) << committed.ToString();
  EXPECT_EQ(visible(1, f.uid1, "b"), committed.ok()) << committed.ToString();
  ASSERT_TRUE(f.servers[1]->UnsealTablet(f.uid1).ok());
  for (auto& server : f.servers) {
    server->Crash();
    ASSERT_TRUE(server->Start().ok());
  }
  EXPECT_EQ(visible(0, f.uid0, "a"), committed.ok());
  EXPECT_EQ(visible(1, f.uid1, "b"), committed.ok());
}

// A seal between a 2PC share's durability and its publication is refused,
// so nothing can refuse the publication once the COMMIT is durable: the
// share publishes and reads the same before and after a restart.
TEST(TxnTest, SealBetweenPhasesIsRefused) {
  TxnFixture f(1);
  tablet::WritePath* path = f.servers[0]->write_path();
  tablet::WriteSet share;
  share.txn_id = 4343;
  share.commit_ts = f.coord.ReserveTimestamps(0, 1);
  share.Put(f.uid0, "k", "v");
  auto staged = path->Stage(std::move(share));
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(path->MakeDurable(&*staged).ok());
  EXPECT_TRUE(f.servers[0]->SealTablet(f.uid0).IsBusy());
  ASSERT_TRUE(path->AppendCommit(4343, staged->set.commit_ts,
                                 log::AckMode::kQuorum)
                  .ok());
  ASSERT_TRUE(path->Publish(&*staged).ok());
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "k")->value, "v");
  ASSERT_TRUE(f.servers[0]->SealTablet(f.uid0).ok());
  ASSERT_TRUE(f.servers[0]->UnsealTablet(f.uid0).ok());
  f.servers[0]->Crash();
  ASSERT_TRUE(f.servers[0]->Start().ok());
  auto got = f.servers[0]->Get(f.uid0, "k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, "v");
}

// A checkpoint between a 2PC share's data records and its COMMIT keeps the
// share: redo starts at or before the data, so replay meets the COMMIT with
// the data in hand.
TEST(TxnTest, CheckpointBetweenPhasesKeepsTheShare) {
  TxnFixture f(1);
  tablet::WritePath* path = f.servers[0]->write_path();
  tablet::WriteSet share;
  share.txn_id = 4242;
  share.commit_ts = f.coord.ReserveTimestamps(0, 1);
  share.Put(f.uid0, "k", "v");
  auto staged = path->Stage(std::move(share));
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(path->MakeDurable(&*staged).ok());
  ASSERT_TRUE(f.servers[0]->Checkpoint().ok());
  ASSERT_TRUE(path->AppendCommit(4242, staged->set.commit_ts,
                                 log::AckMode::kQuorum)
                  .ok());
  ASSERT_TRUE(path->Publish(&*staged).ok());
  f.servers[0]->Crash();
  ASSERT_TRUE(f.servers[0]->Start().ok());
  auto got = f.servers[0]->Get(f.uid0, "k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, "v");
}

// Four clients, each with its own TransactionManager and session, run
// read-modify-write increments on overlapping key pairs, some spanning both
// servers. Aborted attempts retry; no increment may be lost and every
// client finishes.
TEST(TxnTest, ConcurrentIncrementsAreNotLost) {
  TxnFixture f;
  const std::vector<TxnCell> cells = {
      {f.uid0, "c0"}, {f.uid0, "c1"}, {f.uid1, "c2"}};
  constexpr int kClients = 4;
  constexpr int kIncrements = 20;
  auto resolve = [&f](const std::string& uid) -> TabletServer* {
    for (auto& server : f.servers) {
      if (server->FindTablet(uid) != nullptr) return server.get();
    }
    return nullptr;
  };
  auto read_int = [](const Result<std::string>& read, int* out) {
    if (read.ok()) {
      *out = std::stoi(*read);
      return true;
    }
    *out = 0;
    return read.status().IsNotFound();
  };

  std::atomic<int> unfinished{0};
  std::vector<int> expected(cells.size(), 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; c++) {
    const TxnCell& first = cells[c % cells.size()];
    const TxnCell& second = cells[(c + 1) % cells.size()];
    expected[c % cells.size()] += kIncrements;
    expected[(c + 1) % cells.size()] += kIncrements;
    clients.emplace_back([&, c, first, second] {
      TransactionManager manager(&f.coord, c, resolve);
      for (int i = 0; i < kIncrements; i++) {
        bool done = false;
        for (int attempt = 0; attempt < 10000 && !done; attempt++) {
          auto txn = manager.Begin();
          int a = 0;
          int b = 0;
          if (!read_int(manager.Read(txn.get(), first.tablet_uid,
                                     Slice(first.key)),
                        &a) ||
              !read_int(manager.Read(txn.get(), second.tablet_uid,
                                     Slice(second.key)),
                        &b)) {
            manager.Abort(txn.get());
            continue;
          }
          if (!manager
                   .Write(txn.get(), first.tablet_uid, Slice(first.key),
                          std::to_string(a + 1))
                   .ok() ||
              !manager
                   .Write(txn.get(), second.tablet_uid, Slice(second.key),
                          std::to_string(b + 1))
                   .ok()) {
            manager.Abort(txn.get());
            continue;
          }
          done = manager.Commit(txn.get()).ok();
        }
        if (!done) unfinished++;
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(unfinished.load(), 0);
  for (size_t i = 0; i < cells.size(); i++) {
    auto value = resolve(cells[i].tablet_uid)
                     ->Get(cells[i].tablet_uid, Slice(cells[i].key));
    ASSERT_TRUE(value.ok()) << cells[i].key;
    EXPECT_EQ(std::stoi(value->value), expected[i]) << cells[i].key;
  }
}

TEST(OrderedLockSetTest, AcquiresAndReleases) {
  coord::CoordinationService coord;
  coord::LockManager locks(&coord);
  coord::SessionId s = coord.CreateSession(0);
  {
    OrderedLockSet set(&locks, s, "txn-1", 0);
    ASSERT_TRUE(set.AcquireAll({{"t", "b"}, {"t", "a"}, {"t", "b"}}).ok());
    EXPECT_TRUE(set.holds_all());
    // Another owner cannot take them meanwhile.
    OrderedLockSet other(&locks, s, "txn-2", 0);
    EXPECT_FALSE(other.AcquireAll({{"t", "a"}}, /*max_attempts=*/3).ok());
  }
  // RAII released: now acquirable.
  OrderedLockSet after(&locks, s, "txn-3", 0);
  EXPECT_TRUE(after.AcquireAll({{"t", "a"}, {"t", "b"}}).ok());
}

TEST(OrderedLockSetTest, StatsCountLockFailures) {
  TxnFixture f(1);
  // Hold a lock out-of-band so the transaction cannot acquire it.
  coord::LockManager locks(&f.coord);
  coord::SessionId s = f.coord.CreateSession(0);
  std::string lock_name = f.uid0;
  lock_name.push_back('\0');
  lock_name += "blocked";
  ASSERT_TRUE(locks.LockAllAndStamp(s, {lock_name}, "outsider", 0).ok());

  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "blocked", "v").ok());
  EXPECT_TRUE(f.manager->Commit(txn.get()).IsAborted());
  EXPECT_EQ(f.manager->stats().lock_failures.load(), 1u);
}

// The RAII client::Txn handle: dropping it without Commit must abort the
// transaction and leave no trace — writes invisible, no locks or validation
// state held that would block a later transaction on the same keys.
TEST(ClientTxnTest, DroppedHandleAutoAborts) {
  cluster::MiniClusterOptions options;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(
      cluster.master()->CreateTable("t", {"c"}, {{"c"}}, {"key5"}).ok());
  auto client = cluster.NewClient(0);
  ASSERT_TRUE(client->Put("t", 0, "key1", "committed", {}).ok());

  uint64_t aborted_before =
      obs::MetricsRegistry::Global().counter("txn.aborted")->value();
  {
    client::Txn txn = client->BeginTxn();
    EXPECT_TRUE(txn.active());
    ASSERT_TRUE(txn.Write("t", 0, "key1", "abandoned").ok());
    ASSERT_TRUE(txn.Write("t", 0, "key2", "abandoned").ok());
    ASSERT_EQ(txn.raw()->state(), Transaction::State::kActive);
    // No Commit/Abort: the handle goes out of scope holding buffered writes.
  }
  EXPECT_EQ(obs::MetricsRegistry::Global().counter("txn.aborted")->value(),
            aborted_before + 1);

  // Nothing leaked into the committed state.
  auto v1 = client->Get("t", 0, "key1", client::ReadOptions{});
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->value(), "committed");
  EXPECT_TRUE(
      client->Get("t", 0, "key2", client::ReadOptions{}).status().IsNotFound());

  // The same keys are free for the next transaction: no stale locks.
  client::Txn next = client->BeginTxn();
  ASSERT_TRUE(next.Write("t", 0, "key1", "second").ok());
  ASSERT_TRUE(next.Write("t", 0, "key2", "second").ok());
  ASSERT_TRUE(next.Commit().ok());
  EXPECT_FALSE(next.active());
  EXPECT_EQ(client->Get("t", 0, "key1", client::ReadOptions{})->value(),
            "second");
}

// An auto-commit write after a committed transaction must be the visible
// version. The transaction's commit timestamp comes from the coordinator,
// above the timestamp block the tablet server had already reserved; a Put
// drawn from that block sorted below the transaction's version.
TEST(ClientTxnTest, PutAfterTxnIsVisible) {
  cluster::MiniClusterOptions options;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"c"}, {{"c"}}, {}).ok());
  auto client = cluster.NewClient(0);
  ASSERT_TRUE(client->Put("t", 0, "k", "v1", {}).ok());

  client::Txn txn = client->BeginTxn();
  ASSERT_TRUE(txn.Write("t", 0, "k", "v2").ok());
  ASSERT_TRUE(txn.Commit().ok());

  ASSERT_TRUE(client->Put("t", 0, "k", "v3", {}).ok());
  auto latest = client->Get("t", 0, "k", client::ReadOptions{});
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->value(), "v3");
}

// Moving a Txn transfers abort responsibility: the moved-from handle is
// inert and only the destination aborts on drop.
TEST(ClientTxnTest, MoveTransfersOwnership) {
  cluster::MiniClusterOptions options;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(
      cluster.master()->CreateTable("t", {"c"}, {{"c"}}, {"key5"}).ok());
  auto client = cluster.NewClient(0);

  client::Txn outer = client->BeginTxn();
  {
    client::Txn inner = client->BeginTxn();
    ASSERT_TRUE(inner.Write("t", 0, "moved", "v").ok());
    outer = std::move(inner);
    EXPECT_FALSE(inner.active());  // NOLINT(bugprone-use-after-move)
    // `inner` dies here; the live transaction must survive in `outer`.
  }
  EXPECT_TRUE(outer.active());
  ASSERT_TRUE(outer.Commit().ok());
  EXPECT_EQ(client->Get("t", 0, "moved", client::ReadOptions{})->value(), "v");
}

}  // namespace
}  // namespace logbase::txn
