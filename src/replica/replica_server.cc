#include "src/replica/replica_server.h"

#include <algorithm>

#include "src/index/blink_tree.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/sim_context.h"
#include "src/util/logging.h"

namespace logbase::replica {

namespace {

obs::Counter* ReplicaCounter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name);
}

}  // namespace

ReplicaServer::ReplicaServer(ReplicaServerOptions options, dfs::Dfs* dfs,
                             coord::CoordinationService* coord)
    : options_(options),
      dfs_(dfs),
      quota_registry_(coord, options_.node, options_.quota_registry),
      admission_(options_.admission, &quota_registry_),
      fs_(std::make_unique<dfs::DfsFileSystem>(dfs, options_.node)),
      buffer_(options_.read_buffer_bytes, tablet::MakeLruPolicy()) {}

Status ReplicaServer::Start() {
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

Status ReplicaServer::Stop() {
  running_.store(false, std::memory_order_release);
  MutexLock l(mu_);
  tablets_.clear();
  readers_.clear();
  buffer_.Clear();
  return Status::OK();
}

void ReplicaServer::Crash() {
  // Same teardown as Stop: a replica is pure soft state, so a crash and a
  // graceful shutdown lose exactly the same thing (nothing durable).
  (void)Stop();
}

Result<log::LogReader*> ReplicaServer::ReaderForLocked(uint32_t instance) {
  auto it = readers_.find(instance);
  if (it != readers_.end()) return it->second.get();
  auto reader = std::make_unique<log::LogReader>(
      fs_.get(), tablet::TabletServer::LogDirFor(instance), instance);
  log::LogReader* raw = reader.get();
  readers_[instance] = std::move(reader);
  return raw;
}

Status ReplicaServer::SeedTabletLocked(
    const tablet::TabletDescriptor& descriptor, uint32_t source_instance) {
  obs::Span span("replica.seed");

  auto reader = ReaderForLocked(source_instance);
  if (!reader.ok()) return reader.status();

  ReplicatedTablet t;
  t.descriptor = descriptor;
  t.source_instance = source_instance;
  t.index = std::unique_ptr<index::MultiVersionIndex>(new index::BlinkTree());

  // Seeding is tablet adoption without taking ownership: the same
  // range-filtered checkpoint load, then the same replay of the log tail.
  auto seed = tablet::SeedFromCheckpoint(
      fs_.get(),
      tablet::TabletServer::CheckpointDirFor(static_cast<int>(source_instance)),
      descriptor, t.index.get());
  if (!seed.ok()) return seed.status();
  t.max_applied_ts = seed->max_timestamp;
  t.cursor = std::make_unique<tablet::ReplayCursor>(
      *reader, seed->position, tablet::RangeFilter(descriptor, t.index.get()));

  const std::string uid = descriptor.uid();
  // Re-seeding replaces any previous attachment; drop its cached rows so no
  // value from the torn-down index outlives it.
  if (tablets_.count(uid) > 0) buffer_.Clear();
  ReplicatedTablet& attached = tablets_[uid] = std::move(t);
  // Catch up to the log end right away so the tablet is serveable (and its
  // staleness clock starts) without waiting for the first tick.
  return PollLocked(uid, &attached);
}

Status ReplicaServer::PollLocked(const std::string& uid, ReplicatedTablet* t) {
  const uint64_t read_before = t->cursor->records_read();
  LOGBASE_RETURN_NOT_OK(
      t->cursor->Poll([&](const tablet::ReplayCursor::Op& op) -> Status {
        LOGBASE_RETURN_NOT_OK(tablet::ApplyCommitted(op));
        if (op.is_delete) {
          buffer_.Invalidate(tablet::BufferKey(uid, op.key));
        } else {
          buffer_.Put(tablet::BufferKey(uid, op.key),
                      tablet::CachedRecord{op.timestamp, op.value});
        }
        t->max_applied_ts = std::max(t->max_applied_ts, op.timestamp);
        return Status::OK();
      }));
  static obs::Counter* tailed = ReplicaCounter("replica.tail.records");
  tailed->Add(t->cursor->records_read() - read_before);
  // Reaching the end of the log makes this tablet current as of "now" — the
  // staleness clock restarts even when nothing new was appended.
  t->last_sync_us = sim::CurrentVirtualTime();
  return Status::OK();
}

uint64_t ReplicaServer::WatermarkOf(const ReplicatedTablet& t) {
  uint64_t min_pending = t.cursor->min_pending_timestamp();
  if (min_pending == 0) return 0;
  return std::min(t.max_applied_ts, min_pending - 1);
}

Status ReplicaServer::AddTablet(const tablet::TabletDescriptor& descriptor,
                                uint32_t source_instance) {
  if (!running()) return Status::Unavailable("replica server is down");
  MutexLock l(mu_);
  LOGBASE_RETURN_NOT_OK(SeedTabletLocked(descriptor, source_instance));
  LOGBASE_LOG(kInfo, "replica %d seeded tablet %s from instance %u",
              options_.replica_id, descriptor.uid().c_str(), source_instance);
  return Status::OK();
}

Status ReplicaServer::RemoveTablet(const std::string& uid) {
  MutexLock l(mu_);
  if (tablets_.erase(uid) > 0) buffer_.Clear();
  return Status::OK();
}

std::vector<tablet::TabletDescriptor> ReplicaServer::Tablets() const {
  MutexLock l(mu_);
  std::vector<tablet::TabletDescriptor> out;
  out.reserve(tablets_.size());
  for (const auto& [uid, t] : tablets_) out.push_back(t.descriptor);
  return out;
}

int ReplicaServer::NumTablets() const {
  MutexLock l(mu_);
  return static_cast<int>(tablets_.size());
}

Status ReplicaServer::TickTailers() {
  if (!running()) return Status::Unavailable("replica server is down");
  MutexLock l(mu_);
  for (auto& [uid, t] : tablets_) {
    if (t.needs_reseed) {
      LOGBASE_RETURN_NOT_OK(
          SeedTabletLocked(t.descriptor, t.source_instance));
      continue;  // the re-seed already caught up to the log end
    }
    LOGBASE_RETURN_NOT_OK(PollLocked(uid, &t));
  }
  return Status::OK();
}

Result<ReplicaServer::ReplicatedTablet*> ReplicaServer::SnapshotBoundLocked(
    const std::string& uid, uint64_t as_of, int64_t max_staleness_us,
    uint64_t* effective_ts) {
  auto it = tablets_.find(uid);
  if (it == tablets_.end()) {
    return Status::NotFound("unknown replica tablet: " + uid);
  }
  ReplicatedTablet& t = it->second;
  if (max_staleness_us > 0) {
    int64_t staleness = sim::CurrentVirtualTime() - t.last_sync_us;
    if (staleness > max_staleness_us) {
      static obs::Counter* rejected =
          ReplicaCounter("replica.read.staleness_rejected");
      rejected->Add();
      return Status::Unavailable("replica staleness exceeded");
    }
  }
  uint64_t requested = as_of == 0 ? ~0ull : as_of;
  *effective_ts = std::min(requested, WatermarkOf(t));
  return &t;
}

tablet::LogAccess ReplicaServer::LogAccessLocked(ReplicatedTablet* t) {
  // The shared read path calls this synchronously, inside the caller's
  // MutexLock on mu_; the analysis cannot follow the std::function
  // boundary.
  return [this, t](uint32_t instance, const tablet::LogReadOp& op)
             NO_THREAD_SAFETY_ANALYSIS {
               auto reader = ReaderForLocked(instance);
               if (!reader.ok()) return reader.status();
               if (!op(*reader).ok()) {
                 // The pointer no longer resolves: the source compacted the
                 // segment away since we indexed it. Rebuild from the
                 // compaction's checkpoint on the next tick; the caller
                 // retries (and falls back to the primary).
                 t->needs_reseed = true;
                 return Status::Unavailable(
                     "replica log pointer stale; reseeding");
               }
               return Status::OK();
             };
}

Result<tablet::ReadValue> ReplicaServer::Get(const std::string& uid,
                                             const Slice& key, uint64_t as_of,
                                             int64_t max_staleness_us,
                                             uint64_t* snapshot_ts) {
  obs::Span span("replica.get");
  if (!running()) return Status::Unavailable("replica server is down");
  // Admission before any replica state is touched (same contract as the
  // primary front doors: a shed op never partially applies).
  LOGBASE_RETURN_NOT_OK(admission_.Admit(uid, 1, key.size()));
  MutexLock l(mu_);
  uint64_t effective_ts = 0;
  auto t = SnapshotBoundLocked(uid, as_of, max_staleness_us, &effective_ts);
  if (!t.ok()) return t.status();
  if (snapshot_ts != nullptr) *snapshot_ts = effective_ts;

  static obs::HistogramMetric* staleness =
      obs::MetricsRegistry::Global().histogram("replica.read.staleness_us");
  staleness->Observe(static_cast<double>(
      sim::CurrentVirtualTime() - (*t)->last_sync_us));

  // Only when no applied version lies above the snapshot is the fetched
  // version its key's newest, so only then may it be cached.
  const tablet::LogAccess logs = LogAccessLocked(*t);
  auto read = tablet::ReadPoint(
      tablet::ReadContext{&buffer_, Slice(uid), (*t)->index.get(), &logs},
      key, effective_ts,
      /*cacheable=*/effective_ts >= (*t)->max_applied_ts);
  if (!read.ok()) return read.status();
  static obs::Counter* served = ReplicaCounter("replica.read.served");
  served->Add();
  return read;
}

Result<query::TabletResult> ReplicaServer::ExecuteScan(
    const std::string& uid, const Slice& encoded_plan, uint64_t as_of,
    int64_t max_staleness_us, const query::ExecOptions& options,
    uint64_t* snapshot_ts) {
  obs::Span span("replica.exec_scan");
  if (!running()) return Status::Unavailable("replica server is down");
  LOGBASE_RETURN_NOT_OK(admission_.Admit(uid, 1, encoded_plan.size()));
  MutexLock l(mu_);
  uint64_t effective_ts = 0;
  auto t = SnapshotBoundLocked(uid, as_of, max_staleness_us, &effective_ts);
  if (!t.ok()) return t.status();
  if (snapshot_ts != nullptr) *snapshot_ts = effective_ts;

  // Same caching rule as Get.
  const tablet::LogAccess logs = LogAccessLocked(*t);
  auto result = tablet::ScanPlan(
      tablet::ReadContext{&buffer_, Slice(uid), (*t)->index.get(), &logs},
      encoded_plan, effective_ts, options.batch_rows,
      /*cacheable=*/effective_ts >= (*t)->max_applied_ts);
  if (!result.ok()) return result.status();
  static obs::Counter* served = ReplicaCounter("replica.read.served");
  served->Add();
  return result;
}

Result<uint64_t> ReplicaServer::Watermark(const std::string& uid) const {
  MutexLock l(mu_);
  auto it = tablets_.find(uid);
  if (it == tablets_.end()) {
    return Status::NotFound("unknown replica tablet: " + uid);
  }
  return WatermarkOf(it->second);
}

Result<int64_t> ReplicaServer::StalenessUs(const std::string& uid) const {
  MutexLock l(mu_);
  auto it = tablets_.find(uid);
  if (it == tablets_.end()) {
    return Status::NotFound("unknown replica tablet: " + uid);
  }
  return sim::CurrentVirtualTime() - it->second.last_sync_us;
}

}  // namespace logbase::replica
