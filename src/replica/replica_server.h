// Read-replica tablet servers (compute/storage disaggregation over the
// shared log): a ReplicaServer owns no tablets and writes nothing. It seeds
// each replicated tablet from the owner's checkpoint (the same filtered
// reload tablet adoption uses, without taking ownership or sealing
// anything), then tails the owner's log through the same committed-only
// replay cursor recovery uses and serves MVCC snapshot reads at
// min(requested timestamp, applied watermark). Reads are rejected with a
// retryable Unavailable when the replica's last sync is older than the
// caller's staleness bound, so clients fall back to the primary through
// their normal retry policy.
//
// Because the log *is* the database, replicas are soft state end to end: a
// crashed replica rebuilds from the DFS (checkpoint + log tail) and
// converges to the same index the primary serves — no replica-side
// durability, no write-path changes, no quorum.

#ifndef LOGBASE_REPLICA_REPLICA_SERVER_H_
#define LOGBASE_REPLICA_REPLICA_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dfs/dfs.h"
#include "src/index/multiversion_index.h"
#include "src/log/log_reader.h"
#include "src/query/executor.h"
#include "src/sim/sim_context.h"
#include "src/tablet/read_buffer.h"
#include "src/tablet/schema.h"
#include "src/tablet/tablet_server.h"

#include "src/util/ordered_mutex.h"

namespace logbase::replica {

struct ReplicaServerOptions {
  /// Fleet-wide replica id (not a tablet-server id; the two id spaces are
  /// disjoint — replicas never appear in /servers).
  int replica_id = 0;
  /// The machine this replica runs on (network/DFS charging).
  int node = 0;
  size_t read_buffer_bytes = 32ull << 20;
  /// Multi-tenant QoS at the replica front door (src/qos/): disabled by
  /// default.
  qos::AdmissionOptions admission;
  qos::TenantQuotaRegistry::Options quota_registry;
};

class ReplicaServer {
 public:
  /// `coord` may be null: quota znodes are then invisible and only locally
  /// installed quotas (quota_registry()->SetLocal) apply.
  ReplicaServer(ReplicaServerOptions options, dfs::Dfs* dfs,
                coord::CoordinationService* coord = nullptr);

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  Status Start();
  /// Graceful shutdown. Replicas hold no durable state, so stopping and
  /// crashing both just drop the in-memory indexes; a restarted replica is
  /// reseeded by the master (ReseedReplica).
  Status Stop();
  void Crash();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // -- Replication management (driven by the master) ---------------------

  /// Attaches (or re-seeds) a replicated tablet: loads the owner's
  /// checkpointed index entries filtered to the descriptor's range, then
  /// positions a replay cursor at the checkpoint and catches up to the log
  /// end.
  Status AddTablet(const tablet::TabletDescriptor& descriptor,
                   uint32_t source_instance);
  /// Detaches a replicated tablet (source migrated/split/reassigned).
  /// Idempotent.
  Status RemoveTablet(const std::string& uid);
  std::vector<tablet::TabletDescriptor> Tablets() const;
  int NumTablets() const;

  /// Polls every tablet's tailer once, applying all records appended since
  /// the previous tick (re-seeding any tablet whose log pointers went stale
  /// under it). The driver (cluster harness, bench, nemesis) decides the
  /// cadence.
  Status TickTailers();

  // -- Snapshot reads ----------------------------------------------------

  /// MVCC read at min(`as_of` (0 = latest), applied watermark). Unavailable
  /// (retryable) when virtual time since the last log sync exceeds
  /// `max_staleness_us` (0 = unbounded). `snapshot_ts` (optional) reports
  /// the snapshot actually served.
  Result<tablet::ReadValue> Get(const std::string& uid, const Slice& key,
                                uint64_t as_of, int64_t max_staleness_us,
                                uint64_t* snapshot_ts = nullptr);

  /// Scan pushdown at the replica (the Taurus-style analytics-over-the-log
  /// tier): evaluates the wire-encoded QueryPlan at
  /// min(`as_of`, applied watermark), under the same staleness gate as
  /// Get. Aggregation partials computed here merge bit-identically
  /// with primary partials — the snapshot bound, not the serving tier,
  /// decides the answer.
  Result<query::TabletResult> ExecuteScan(const std::string& uid,
                                          const Slice& encoded_plan,
                                          uint64_t as_of,
                                          int64_t max_staleness_us,
                                          const query::ExecOptions& options = {},
                                          uint64_t* snapshot_ts = nullptr);

  // -- Introspection -----------------------------------------------------

  /// The tablet's applied watermark; NotFound when not replicated here.
  Result<uint64_t> Watermark(const std::string& uid) const;
  /// Virtual microseconds since the tablet's last completed log sync.
  Result<int64_t> StalenessUs(const std::string& uid) const;
  int replica_id() const { return options_.replica_id; }
  int node() const { return options_.node; }
  qos::TenantQuotaRegistry* quota_registry() { return &quota_registry_; }
  qos::AdmissionController* admission() { return &admission_; }

 private:
  struct ReplicatedTablet {
    tablet::TabletDescriptor descriptor;
    uint32_t source_instance = 0;
    std::unique_ptr<index::MultiVersionIndex> index;
    /// Replays the source log past the seeded checkpoint.
    std::unique_ptr<tablet::ReplayCursor> cursor;
    /// Newest timestamp seeded or applied.
    uint64_t max_applied_ts = 0;
    /// Virtual time of the last poll that reached the end of the log (the
    /// staleness reference point).
    sim::VirtualTime last_sync_us = 0;
    /// Set when a log pointer no longer resolves (the source compacted the
    /// segment away); the next tick rebuilds from the fresh checkpoint.
    bool needs_reseed = false;
  };

  Status SeedTabletLocked(const tablet::TabletDescriptor& descriptor,
                          uint32_t source_instance) REQUIRES(mu_);
  /// Applies every committed write appended since the last poll, to the
  /// index and to the read buffer (so replica reads of recently written
  /// rows skip the log fetch).
  Status PollLocked(const std::string& uid, ReplicatedTablet* t)
      REQUIRES(mu_);
  /// The snapshot bound: reads at timestamps <= the watermark see exactly
  /// what the primary's as-of reads see. Transactional writes carry their
  /// commit timestamp but become visible only once their COMMIT is tailed,
  /// so while any is pending the watermark holds back to just below the
  /// smallest pending timestamp (reads above it could retroactively grow).
  /// A write that never commits keeps holding it back; clients fall back
  /// to the primary meanwhile.
  static uint64_t WatermarkOf(const ReplicatedTablet& t);
  Result<log::LogReader*> ReaderForLocked(uint32_t instance) REQUIRES(mu_);
  /// The replicated tablet `uid` and the snapshot a read at `as_of` gets
  /// from it (`effective_ts`), after the staleness gate; shared by Get and
  /// ExecuteScan.
  Result<ReplicatedTablet*> SnapshotBoundLocked(const std::string& uid,
                                                uint64_t as_of,
                                                int64_t max_staleness_us,
                                                uint64_t* effective_ts)
      REQUIRES(mu_);
  /// `t`'s log access for the shared read path (point and range reads
  /// alike): a read that fails flags `t` for reseed and reads as
  /// Unavailable.
  tablet::LogAccess LogAccessLocked(ReplicatedTablet* t) REQUIRES(mu_);

  ReplicaServerOptions options_;  // fixed after construction
  dfs::Dfs* const dfs_;
  // Internally synchronized; gates Get/ExecuteScan before mu_.
  qos::TenantQuotaRegistry quota_registry_;
  qos::AdmissionController admission_;
  // Set in the constructor; the DFS adapter is internally synchronized.
  std::unique_ptr<FileSystem> fs_;  // DFS adapter bound to this node

  std::atomic<bool> running_{false};

  mutable OrderedMutex mu_{lockrank::kReplicaServerTablets,
                           "replica.server.tablets"};
  // Tablet state (including each replay cursor, which is not internally
  // synchronized) is only touched under mu_ — watermark/staleness reads
  // included, so a mid-poll reader cannot observe a torn cursor.
  std::map<std::string, ReplicatedTablet> tablets_ GUARDED_BY(mu_);
  std::map<uint32_t, std::unique_ptr<log::LogReader>> readers_
      GUARDED_BY(mu_);
  tablet::ReadBuffer buffer_;  // internally synchronized (its own mu_)
};

}  // namespace logbase::replica

#endif  // LOGBASE_REPLICA_REPLICA_SERVER_H_
