// Read replicas (src/replica/): checkpoint-seeded log tailing, watermark
// snapshot reads that match the primary, transactional holdback, bounded
// staleness with primary fallback, crash/reseed convergence, replica
// teardown on migration, and the I6 nemesis invariant (replica-served reads
// are prefix-consistent snapshots, deterministically under faults).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/balance/migration.h"
#include "src/cluster/mini_cluster.h"
#include "src/fault/nemesis.h"
#include "src/log/log_record.h"
#include "src/query/plan.h"
#include "src/sim/sim_context.h"
#include "src/util/random.h"

namespace logbase::replica {
namespace {

// SetReplicaFleet replaces the fleet vector and the resolver std::function
// while the balancer thread calls ResolveReplica/ReplicaFleet; all four now
// go through mu_. Before the fix ReplicaFleet returned a reference to the
// vector and ResolveReplica invoked the std::function with no lock — a data
// race mid-reassignment. Hammer both sides; TSan (this suite carries the
// "concurrency" label) and the monotonic-id assertions below catch a relapse.
TEST(ReplicaFleetTest, ConcurrentFleetSwapAndResolve) {
  coord::CoordinationService coord;
  auto no_servers = [](int) -> tablet::TabletServer* { return nullptr; };
  master::Master m(&coord, 0, no_servers, {});

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    for (int round = 1; !stop.load(std::memory_order_relaxed); round++) {
      // Resolver captures its round; ids and resolver swap together.
      m.SetReplicaFleet({round, round + 1},
                        [](int) -> replica::ReplicaServer* { return nullptr; });
    }
  });
  for (int i = 0; i < 20000; i++) {
    std::vector<int> fleet = m.ReplicaFleet();
    if (!fleet.empty()) {
      ASSERT_EQ(fleet.size(), 2u);
      // Both entries come from the same SetReplicaFleet call: a torn or
      // stale mix would break the pairing invariant.
      ASSERT_EQ(fleet[1], fleet[0] + 1);
      EXPECT_EQ(m.ResolveReplica(fleet[0]), nullptr);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
}

cluster::MiniClusterOptions SmallCluster(int nodes = 3, int replicas = 1) {
  cluster::MiniClusterOptions options;
  options.num_nodes = nodes;
  options.num_replicas = replicas;
  options.server_template.segment_bytes = 1 << 20;
  return options;
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}

/// Attaches every assigned tablet to `count` distinct replicas; returns the
/// tablet uids.
std::vector<std::string> AttachAll(master::Master* m, int count) {
  std::vector<std::string> uids;
  for (const auto& [uid, location] : m->AssignmentsSnapshot()) {
    uids.push_back(uid);
    for (int i = 0; i < count; i++) {
      auto added = m->AddReplica(uid);
      EXPECT_TRUE(added.ok()) << added.status().ToString();
    }
  }
  return uids;
}

TEST(ReplicaTest, WatermarkReadsMatchPrimary) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }

  // Attach after the writes: the replica seeds from the checkpoint (if any)
  // and catches up through the log tail. The client's routes were cached
  // before the attach, so drop them to pick up the replica set.
  AttachAll(cluster.active_master(), 1);
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();

  for (int i = 0; i < 50; i++) {
    client::ReadOptions primary_opts;
    auto primary = client->Get("t", 0, Key(i), primary_opts);
    ASSERT_TRUE(primary.ok()) << primary.status().ToString();
    EXPECT_EQ(primary->snapshot_ts, 0u);

    client::ReadOptions stale_opts;
    stale_opts.allow_stale = true;
    auto stale = client->Get("t", 0, Key(i), stale_opts);
    ASSERT_TRUE(stale.ok()) << stale.status().ToString();
    EXPECT_NE(stale->snapshot_ts, 0u);  // actually replica-served
    EXPECT_EQ(stale->value(), primary->value());
    EXPECT_EQ(stale->timestamp(), primary->timestamp());
    EXPECT_LE(stale->timestamp(), stale->snapshot_ts);
  }

  // New writes become visible on the next tick.
  ASSERT_TRUE(client->Put("t", 0, Key(7), "updated", {}).ok());
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client::ReadOptions stale_opts;
  stale_opts.allow_stale = true;
  auto updated = client->Get("t", 0, Key(7), stale_opts);
  ASSERT_TRUE(updated.ok());
  EXPECT_NE(updated->snapshot_ts, 0u);
  EXPECT_EQ(updated->value(), "updated");
}

TEST(ReplicaTest, TxnHoldbackAdvancesOnCommit) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "base", {}).ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  ASSERT_EQ(uids.size(), 1u);
  const std::string& uid = uids[0];
  ASSERT_TRUE(cluster.TickReplicas().ok());
  ReplicaServer* rep = cluster.replica(0);
  auto before = rep->Watermark(uid);
  ASSERT_TRUE(before.ok());

  // Stage an undecided transaction's share directly in the owner's log.
  // Client transactions stage and commit in one call, so data-without-
  // COMMIT state — what the tailer must hold the watermark under — needs
  // the write path's steps driven one at a time.
  auto location = m->GetAssignment(uid);
  ASSERT_TRUE(location.ok());
  tablet::TabletServer* server = cluster.server(location->server_id);
  tablet::WritePath* path = server->write_path();
  // A commit timestamp above every issued one, straight from the authority.
  const uint64_t txn_ts = cluster.coord()->ReserveTimestamps(0, 1);
  tablet::WriteSet share;
  share.txn_id = 777;
  share.commit_ts = txn_ts;
  share.Put(uid, Key(3), "txn-value");
  auto staged = path->Stage(std::move(share));
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(path->MakeDurable(&*staged).ok());

  // Auto-commit writes land above the pending transaction (the server may
  // first drain a cached timestamp block below txn_ts; write until one
  // lands above it)...
  uint64_t late_ts = 0;
  for (int i = 0; i < 10000 && late_ts <= txn_ts; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(100 + i), "late", {}).ok());
    auto landed = client->Get("t", 0, Key(100 + i), client::ReadOptions{});
    ASSERT_TRUE(landed.ok());
    late_ts = landed->timestamp();
  }
  ASSERT_GT(late_ts, txn_ts);
  ASSERT_TRUE(cluster.TickReplicas().ok());
  // ...but the watermark holds just below it: a snapshot that included the
  // late writes would have to decide the undecided transaction.
  auto held = rep->Watermark(uid);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(*held, txn_ts - 1);
  EXPECT_GE(*held, *before);

  // COMMIT decides it; the watermark catches up past the late writes and
  // the transactional value becomes readable at the replica.
  ASSERT_TRUE(path->AppendCommit(777, txn_ts, log::AckMode::kQuorum).ok());
  ASSERT_TRUE(path->Publish(&*staged).ok());
  ASSERT_TRUE(cluster.TickReplicas().ok());
  auto advanced = rep->Watermark(uid);
  ASSERT_TRUE(advanced.ok());
  EXPECT_GE(*advanced, late_ts);

  uint64_t snapshot_ts = 0;
  auto got = rep->Get(uid, Slice(Key(3)), /*as_of=*/0, /*max_staleness_us=*/0,
                      &snapshot_ts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, "txn-value");
  EXPECT_EQ(got->timestamp, txn_ts);
  EXPECT_EQ(snapshot_ts, *advanced);
}

TEST(ReplicaTest, StalenessRejectionIsRetryableAndFallsBack) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "fresh", {}).ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  const std::string& uid = uids[0];
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();  // routes were cached before the attach
  ReplicaServer* rep = cluster.replica(0);

  // Just synced: any bound is satisfied.
  uint64_t snapshot_ts = 0;
  auto fresh = rep->Get(uid, Slice(Key(1)), 0, /*max_staleness_us=*/1000,
                        &snapshot_ts);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_NE(snapshot_ts, 0u);

  // The replica falls behind the caller's bound: the read is rejected with
  // a *retryable* Unavailable, never silently served.
  ctx.Advance(5000);
  auto rejected = rep->Get(uid, Slice(Key(1)), 0, /*max_staleness_us=*/1000);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable())
      << rejected.status().ToString();
  auto staleness = rep->StalenessUs(uid);
  ASSERT_TRUE(staleness.ok());
  EXPECT_GE(*staleness, 5000);

  // The client rides the rejection to the primary: the read succeeds and is
  // marked primary-served (snapshot_ts == 0).
  client::ReadOptions bounded;
  bounded.allow_stale = true;
  bounded.max_staleness_us = 1000;
  auto fallback = client->Get("t", 0, Key(1), bounded);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->snapshot_ts, 0u);
  EXPECT_EQ(fallback->value(), "fresh");

  // A tick re-syncs the tailer; the same bounded read is replica-served.
  ASSERT_TRUE(cluster.TickReplicas().ok());
  auto resynced = client->Get("t", 0, Key(1), bounded);
  ASSERT_TRUE(resynced.ok());
  EXPECT_NE(resynced->snapshot_ts, 0u);
}

TEST(ReplicaTest, CrashedReplicaRebuildsAndConverges) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(client->Delete("t", 0, Key(i * 6), {}).ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  const std::string& uid = uids[0];
  ASSERT_TRUE(cluster.TickReplicas().ok());

  // Crash drops all replica soft state; writes keep flowing meanwhile.
  cluster.CrashReplica(0);
  EXPECT_FALSE(cluster.replica(0)->running());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(200 + i), "post-crash", {}).ok());
  }

  // Restart reseeds from the DFS (checkpoint + log tail) and converges: the
  // replica's snapshot at its watermark is byte-identical to the primary's
  // as-of read at the same timestamp. A match-all plan (full range, empty
  // projection) ships every visible row with its raw stored value.
  ASSERT_TRUE(cluster.RestartReplica(0).ok());
  ASSERT_TRUE(cluster.TickReplicas().ok());
  ReplicaServer* rep = cluster.replica(0);
  uint64_t snapshot_ts = 0;
  auto result = rep->ExecuteScan(uid, Slice(query::QueryPlan{}.Encode()),
                                 /*as_of=*/0, /*max_staleness_us=*/0, {},
                                 &snapshot_ts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(snapshot_ts, 0u);
  const std::vector<tablet::ReadRow> replica_rows =
      tablet::RowsFromBatches(result->batches);

  auto location = m->GetAssignment(uid);
  ASSERT_TRUE(location.ok());
  query::ExecOptions at_snapshot;
  at_snapshot.as_of = snapshot_ts;
  auto primary = cluster.server(location->server_id)
                     ->ExecuteScan(uid, Slice(query::QueryPlan{}.Encode()),
                                   at_snapshot);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  const std::vector<tablet::ReadRow> primary_rows =
      tablet::RowsFromBatches(primary->batches);

  ASSERT_EQ(replica_rows.size(), primary_rows.size());
  EXPECT_FALSE(replica_rows.empty());
  for (size_t i = 0; i < replica_rows.size(); i++) {
    EXPECT_EQ(replica_rows[i].key, primary_rows[i].key);
    EXPECT_EQ(replica_rows[i].timestamp, primary_rows[i].timestamp);
    EXPECT_FALSE(replica_rows[i].value.empty());  // raw values shipped
    EXPECT_EQ(replica_rows[i].value, primary_rows[i].value);
  }
}

TEST(ReplicaTest, MigrationTearsDownReplicasAndClientsFallBack) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.active_master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  const std::string& uid = uids[0];
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();  // routes were cached before the attach

  // Warm the client's route cache with the replica route.
  client::ReadOptions stale_opts;
  stale_opts.allow_stale = true;
  auto warmed = client->Get("t", 0, Key(2), stale_opts);
  ASSERT_TRUE(warmed.ok());
  EXPECT_NE(warmed->snapshot_ts, 0u);

  // Migrate the tablet: its replicas tail the *source's* log, so the master
  // tears them down rather than serve a frozen cursor.
  auto location = m->GetAssignment(uid);
  ASSERT_TRUE(location.ok());
  int to = (location->server_id + 1) % cluster.num_nodes();
  balance::MigrationCoordinator coordinator(m);
  ASSERT_TRUE(coordinator.MigrateTablet(uid, to).ok());

  auto after = m->GetAssignment(uid);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->server_id, to);
  EXPECT_TRUE(after->replicas.empty());
  EXPECT_EQ(cluster.replica(0)->NumTablets(), 0);

  // The client still holds the old route: the torn-down replica answers
  // "unknown replica tablet", which invalidates the cache and the read
  // completes on the (new) primary in the same call.
  auto fallback = client->Get("t", 0, Key(2), stale_opts);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->snapshot_ts, 0u);
  EXPECT_EQ(fallback->value(), "v2");

  // Re-attached replicas on the new owner serve again.
  ASSERT_TRUE(m->AddReplica(uid).ok());
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();
  auto reattached = client->Get("t", 0, Key(2), stale_opts);
  ASSERT_TRUE(reattached.ok());
  EXPECT_NE(reattached->snapshot_ts, 0u);
  EXPECT_EQ(reattached->value(), "v2");
}

// A historical point read must not cache the version it fetched: the
// replica's buffer holds each key's newest version, so a later
// latest-snapshot read would be answered with the old value.
TEST(ReplicaTest, HistoricalReadDoesNotPoisonBuffer) {
  cluster::MiniClusterOptions options = SmallCluster();
  options.replica_read_buffer_bytes = 64;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  ASSERT_TRUE(client->Put("t", 0, Key(0), "old-value", {}).ok());
  auto old_read = client->Get("t", 0, Key(0), client::ReadOptions{});
  ASSERT_TRUE(old_read.ok());
  const uint64_t ts_old = old_read->timestamp();
  ASSERT_TRUE(client->Put("t", 0, Key(0), "new-value", {}).ok());

  std::vector<std::string> uids = AttachAll(m, 1);
  const std::string& uid = uids[0];
  ASSERT_TRUE(cluster.TickReplicas().ok());
  // Tailed filler rows push key0000 out of the 64-byte buffer.
  for (int i = 1; i <= 8; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "filler-filler-filler", {}).ok());
  }
  ASSERT_TRUE(cluster.TickReplicas().ok());

  ReplicaServer* rep = cluster.replica(0);
  auto historical = rep->Get(uid, Slice(Key(0)), ts_old, 0);
  ASSERT_TRUE(historical.ok()) << historical.status().ToString();
  EXPECT_EQ(historical->value, "old-value");
  auto latest = rep->Get(uid, Slice(Key(0)), 0, 0);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->value, "new-value");
}

// Stale-tolerant queries rotate across a tablet's replicas: with two
// replicas at different watermarks, the tablets of one query are answered
// by both (each tablet wholly by one).
TEST(ReplicaTest, StaleQueryRotatesAcrossReplicas) {
  cluster::MiniCluster cluster(SmallCluster(/*nodes=*/3, /*replicas=*/2));
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  std::vector<std::string> splits;
  for (int t = 1; t < 8; t++) splits.push_back(Key(t * 10));
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, splits).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 80; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v1", {}).ok());
  }
  ASSERT_EQ(AttachAll(m, 2).size(), 8u);
  ASSERT_TRUE(cluster.TickReplicas().ok());
  for (int i = 0; i < 80; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v2", {}).ok());
  }
  // Only replica 0 sees the second round.
  ASSERT_TRUE(cluster.replica(0)->TickTailers().ok());

  client::QueryOptions options;
  options.read.allow_stale = true;
  auto result = client->Query("t", 0, query::QueryPlan{}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tablets_queried, 8u);
  EXPECT_EQ(result->tablets_from_replica, 8u);
  const std::vector<tablet::ReadRow> rows = result->ToRows();
  ASSERT_EQ(rows.size(), 80u);
  int fresh_tablets = 0;
  for (int t = 0; t < 8; t++) {
    const std::string& first = rows[t * 10].value;
    for (int i = t * 10; i < t * 10 + 10; i++) {
      EXPECT_EQ(rows[i].value, first) << rows[i].key;
    }
    if (first == "v2") fresh_tablets++;
  }
  EXPECT_GT(fresh_tablets, 0) << "replica 0 served no tablet";
  EXPECT_LT(fresh_tablets, 8) << "replica 1 served no tablet";
}

// The newest version of `versions` (ascending by timestamp) visible at
// `snapshot`, or nullptr.
const std::pair<uint64_t, std::string>* VisibleAt(
    const std::vector<std::pair<uint64_t, std::string>>& versions,
    uint64_t snapshot) {
  const std::pair<uint64_t, std::string>* visible = nullptr;
  for (const auto& version : versions) {
    if (version.first <= snapshot) visible = &version;
  }
  return visible;
}

// Point-read counterpart of query_test's three-way differential: primary
// Get(as_of), replica Get(as_of) and a shadow history agree over random
// keys, versions and snapshots, with read buffers small enough to churn on
// both tiers and replica ticks interleaved (so the replica's snapshot often
// lags the primary's).
class ReplicaPointDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaPointDifferentialTest,
                         ::testing::Values(5ull, 2024ull, 31337ull));

TEST_P(ReplicaPointDifferentialTest, PrimaryReplicaAndShadowAgree) {
  cluster::MiniClusterOptions options = SmallCluster();
  options.server_template.read_buffer_bytes = 96;
  options.replica_read_buffer_bytes = 96;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {Key(16)}).ok());
  auto client = cluster.NewClient(0);
  AttachAll(m, 1);
  ASSERT_TRUE(cluster.TickReplicas().ok());
  ReplicaServer* rep = cluster.replica(0);

  Random rnd(GetParam());
  std::map<std::string, std::vector<std::pair<uint64_t, std::string>>>
      shadow;
  int checked = 0;
  for (int step = 0; step < 600; step++) {
    const std::string key = Key(static_cast<int>(rnd.Uniform(32)));
    auto location = m->Locate("t", 0, Slice(key));
    ASSERT_TRUE(location.ok());
    const std::string uid = location->descriptor.uid();
    tablet::TabletServer* server = cluster.server(location->server_id);
    const uint64_t action = rnd.Uniform(100);
    if (action < 35) {
      const std::string value =
          "s" + std::to_string(step) + std::string(rnd.Uniform(30), 'x');
      ASSERT_TRUE(client->Put("t", 0, key, value, {}).ok());
      auto ts = server->LatestVersion(uid, Slice(key));
      ASSERT_TRUE(ts.ok());
      shadow[key].emplace_back(*ts, value);
      continue;
    }
    if (action < 45) {
      ASSERT_TRUE(cluster.TickReplicas().ok());
      continue;
    }
    // A snapshot at, just below or just above one of the key's versions, or
    // the latest one.
    const auto& versions = shadow[key];
    uint64_t as_of = ~0ull;
    if (!versions.empty() && rnd.Uniform(4) != 0) {
      const uint64_t ts = versions[rnd.Uniform(versions.size())].first;
      as_of = std::max<uint64_t>(1, ts - 1 + rnd.Uniform(3));
    }
    SCOPED_TRACE("step " + std::to_string(step) + " key " + key + " as_of " +
                 std::to_string(as_of));

    const auto* want = VisibleAt(versions, as_of);
    auto primary = server->Get(uid, Slice(key), as_of);
    if (want == nullptr) {
      EXPECT_TRUE(primary.status().IsNotFound()) << primary.status().ToString();
    } else {
      ASSERT_TRUE(primary.ok()) << primary.status().ToString();
      EXPECT_EQ(primary->timestamp, want->first);
      EXPECT_EQ(primary->value, want->second);
    }

    uint64_t snapshot = 0;
    auto replica = rep->Get(uid, Slice(key), as_of == ~0ull ? 0 : as_of,
                            /*max_staleness_us=*/0, &snapshot);
    EXPECT_LE(snapshot, as_of);
    const auto* want_replica = VisibleAt(versions, snapshot);
    if (want_replica == nullptr) {
      EXPECT_TRUE(replica.status().IsNotFound())
          << replica.status().ToString();
    } else {
      ASSERT_TRUE(replica.ok()) << replica.status().ToString();
      EXPECT_EQ(replica->timestamp, want_replica->first);
      EXPECT_EQ(replica->value, want_replica->second);
    }
    checked++;
  }
  EXPECT_GT(checked, 200);
}

// Snapshot readers on both tiers race a writer and the replica's tailer
// over buffers that hold about one row, so fills, hits and evictions
// interleave with tailing. Every read must return the newest version
// visible at the snapshot it was served at.
TEST(ReplicaConcurrencyTest, SnapshotReadersRaceTailers) {
  cluster::MiniClusterOptions options = SmallCluster();
  options.server_template.read_buffer_bytes = 96;
  options.replica_read_buffer_bytes = 96;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  constexpr int kKeys = 16;
  // Snapshots the readers pick: timestamps of versions written before the
  // race starts (everything at or below them is already published).
  std::vector<uint64_t> snapshots;
  auto location = m->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(location.ok());
  const std::string uid = location->descriptor.uid();
  tablet::TabletServer* server = cluster.server(location->server_id);
  for (int round = 0; round < 3; round++) {
    for (int k = 0; k < kKeys; k++) {
      ASSERT_TRUE(server
                      ->Put(uid, Slice(Key(k)),
                            "r" + std::to_string(round) + "k" +
                                std::to_string(k))
                      .ok());
      auto ts = server->LatestVersion(uid, Slice(Key(k)));
      ASSERT_TRUE(ts.ok());
      snapshots.push_back(*ts);
    }
  }
  AttachAll(m, 1);
  ASSERT_TRUE(cluster.TickReplicas().ok());
  ReplicaServer* rep = cluster.replica(0);

  struct Observation {
    int key = 0;
    bool from_replica = false;
    uint64_t snapshot = 0;  // ~0 = latest on the primary
    bool found = false;
    uint64_t timestamp = 0;
    std::string value;
  };
  constexpr int kReaders = 3;
  std::atomic<int> readers_done{0};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (int i = 0; i < 4000 && readers_done.load() < kReaders; i++) {
      EXPECT_TRUE(server
                      ->Put(uid, Slice(Key(i % kKeys)),
                            "w" + std::to_string(i) + std::string(i % 7, 'y'))
                      .ok());
    }
    writer_done.store(true);
  });
  std::thread ticker([&] {
    while (!writer_done.load()) EXPECT_TRUE(rep->TickTailers().ok());
  });
  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      Random rnd(100 + r);
      while (observed[r].size() < 1500) {
        Observation o;
        o.key = static_cast<int>(rnd.Uniform(kKeys));
        o.from_replica = rnd.Uniform(2) == 0;
        const uint64_t pick = rnd.Uniform(snapshots.size() + 2);
        const uint64_t as_of =
            pick < snapshots.size() ? snapshots[pick] : ~0ull;
        Result<tablet::ReadValue> read = Status::OK();
        if (o.from_replica) {
          read = rep->Get(uid, Slice(Key(o.key)), as_of == ~0ull ? 0 : as_of,
                          0, &o.snapshot);
        } else {
          o.snapshot = as_of;
          read = server->Get(uid, Slice(Key(o.key)), as_of);
        }
        if (read.ok()) {
          o.found = true;
          o.timestamp = read->timestamp;
          o.value = std::move(read->value);
        } else {
          ASSERT_TRUE(read.status().IsNotFound()) << read.status().ToString();
        }
        observed[r].push_back(std::move(o));
      }
      readers_done.fetch_add(1);
    });
  }
  for (std::thread& t : readers) t.join();
  writer.join();
  ticker.join();

  std::vector<std::vector<std::pair<uint64_t, std::string>>> history(kKeys);
  for (int k = 0; k < kKeys; k++) {
    auto versions = server->GetVersions(uid, Slice(Key(k)));  // newest first
    ASSERT_TRUE(versions.ok());
    for (auto it = versions->rbegin(); it != versions->rend(); ++it) {
      history[k].emplace_back(it->timestamp, it->value);
    }
  }
  size_t reads = 0;
  for (const auto& per_reader : observed) {
    for (const Observation& o : per_reader) {
      reads++;
      if (!o.from_replica && o.snapshot == ~0ull) {
        // A latest primary read races the writer: it must return some
        // published version, byte-exact.
        bool known = false;
        for (const auto& [ts, value] : history[o.key]) {
          known |= ts == o.timestamp && value == o.value;
        }
        EXPECT_TRUE(known) << Key(o.key) << "@" << o.timestamp;
        continue;
      }
      const auto* want = VisibleAt(history[o.key], o.snapshot);
      EXPECT_EQ(o.found, want != nullptr) << Key(o.key) << "@" << o.snapshot;
      if (want == nullptr || !o.found) continue;
      EXPECT_EQ(o.timestamp, want->first)
          << Key(o.key) << " replica=" << o.from_replica << " snapshot "
          << o.snapshot;
      EXPECT_EQ(o.value, want->second) << Key(o.key);
    }
  }
  EXPECT_EQ(reads, kReaders * 1500u);
}

// I6 under chaos: replica crashes/restarts race server and master faults
// while 40% of reads are stale-tolerant. Every replica-served read must be a
// prefix-consistent snapshot of the primary's history, and the whole run —
// replica routing decisions included — must replay bit-identically.
TEST(ReplicaNemesisTest, StaleReadsHoldI6Deterministically) {
  fault::NemesisOptions options;
  options.num_nodes = 5;
  options.num_masters = 2;
  options.seed = 909;
  options.rounds = 250;
  options.num_replicas = 2;
  fault::FaultPlan plan;
  plan.Crash(90 * 1000, 2)
      .CrashMaster(180 * 1000, 0)
      .Restart(260 * 1000, 2)
      .RestartMaster(420 * 1000, 0);

  auto first = fault::RunNemesis(options, plan);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->violations.empty()) << first->ToString();
  EXPECT_GT(first->ops_acked, 0);
  EXPECT_GT(first->stale_reads_served, 0) << first->ToString();

  auto second = fault::RunNemesis(options, plan);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->violations.empty()) << second->ToString();
  EXPECT_EQ(first->schedule, second->schedule);
  EXPECT_EQ(first->table_digest, second->table_digest) << first->ToString();
  EXPECT_EQ(first->ops_acked, second->ops_acked);
  EXPECT_EQ(first->stale_reads_served, second->stale_reads_served);
  EXPECT_EQ(first->stale_read_fallbacks, second->stale_read_fallbacks);
}

}  // namespace
}  // namespace logbase::replica
