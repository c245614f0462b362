#include "src/replica/replica_server.h"

#include <algorithm>

#include "src/index/blink_tree.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/costs.h"
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

std::string ReplicaServer::BufferPrefix(const std::string& uid) const {
  std::string prefix = uid;
  prefix.push_back('\0');
  return prefix;
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
  const std::string prefix = BufferPrefix(uid);
  const uint64_t read_before = t->cursor->records_read();
  LOGBASE_RETURN_NOT_OK(
      t->cursor->Poll([&](const tablet::ReplayCursor::Op& op) -> Status {
        LOGBASE_RETURN_NOT_OK(tablet::ApplyCommitted(op));
        if (op.is_delete) {
          buffer_.Invalidate(prefix + op.key);
        } else {
          buffer_.Put(prefix + op.key,
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

Status ReplicaServer::SnapshotBoundLocked(const ReplicatedTablet& t,
                                          uint64_t as_of,
                                          int64_t max_staleness_us,
                                          uint64_t* effective_ts) const {
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
  return Status::OK();
}

Status ReplicaServer::StalePointerLocked(ReplicatedTablet* t) {
  // A pointer no longer resolves: the source compacted the segment away
  // since we indexed it. Rebuild from the compaction's checkpoint on the
  // next tick; the caller retries (and falls back to the primary).
  t->needs_reseed = true;
  return Status::Unavailable("replica log pointer stale; reseeding");
}

Result<std::string> ReplicaServer::FetchValueLocked(
    ReplicatedTablet* t, const index::IndexEntry& entry) {
  obs::Span span("log.read");
  auto reader = ReaderForLocked(entry.ptr.instance);
  if (!reader.ok()) return reader.status();
  auto record = (*reader)->Read(entry.ptr);
  if (!record.ok()) return StalePointerLocked(t);
  sim::ChargeCpu(sim::costs::kRecordCodecUs);
  if (record->row.timestamp != entry.timestamp) {
    return Status::Corruption("replica index points at wrong record version");
  }
  return std::move(record->value);
}

Result<std::vector<log::LogRecord>> ReplicaServer::ReadManyLocked(
    ReplicatedTablet* t, uint32_t instance,
    const std::vector<log::LogPtr>& ptrs) {
  auto reader = ReaderForLocked(instance);
  if (!reader.ok()) return reader.status();
  auto records = (*reader)->ReadMany(ptrs);
  if (!records.ok()) return StalePointerLocked(t);
  return records;
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
  auto it = tablets_.find(uid);
  if (it == tablets_.end()) {
    return Status::NotFound("unknown replica tablet: " + uid);
  }
  ReplicatedTablet& t = it->second;

  uint64_t effective_ts = 0;
  LOGBASE_RETURN_NOT_OK(
      SnapshotBoundLocked(t, as_of, max_staleness_us, &effective_ts));
  if (snapshot_ts != nullptr) *snapshot_ts = effective_ts;

  static obs::Counter* served = ReplicaCounter("replica.read.served");
  static obs::HistogramMetric* staleness =
      obs::MetricsRegistry::Global().histogram("replica.read.staleness_us");
  staleness->Observe(static_cast<double>(
      sim::CurrentVirtualTime() - t.last_sync_us));

  // The buffer holds the latest applied version; it answers only when that
  // version is already visible at the snapshot.
  tablet::CachedRecord cached;
  if (buffer_.Get(BufferPrefix(uid) + key.ToString(), &cached) &&
      cached.timestamp <= effective_ts) {
    served->Add();
    return tablet::ReadValue{cached.timestamp, std::move(cached.value)};
  }
  Result<index::IndexEntry> entry = [&] {
    obs::Span probe("index.probe");
    return t.index->GetAsOf(key, effective_ts);
  }();
  if (!entry.ok()) return entry.status();
  auto value = FetchValueLocked(&t, *entry);
  if (!value.ok()) return value.status();
  buffer_.Put(BufferPrefix(uid) + key.ToString(),
              tablet::CachedRecord{entry->timestamp, *value});
  served->Add();
  return tablet::ReadValue{entry->timestamp, std::move(*value)};
}

Result<query::TabletResult> ReplicaServer::ExecuteScan(
    const std::string& uid, const Slice& encoded_plan, uint64_t as_of,
    int64_t max_staleness_us, const query::ExecOptions& options,
    uint64_t* snapshot_ts) {
  obs::Span span("replica.exec_scan");
  if (!running()) return Status::Unavailable("replica server is down");
  LOGBASE_RETURN_NOT_OK(admission_.Admit(uid, 1, encoded_plan.size()));
  MutexLock l(mu_);
  auto it = tablets_.find(uid);
  if (it == tablets_.end()) {
    return Status::NotFound("unknown replica tablet: " + uid);
  }
  ReplicatedTablet& t = it->second;

  uint64_t effective_ts = 0;
  LOGBASE_RETURN_NOT_OK(
      SnapshotBoundLocked(t, as_of, max_staleness_us, &effective_ts));
  if (snapshot_ts != nullptr) *snapshot_ts = effective_ts;

  auto plan = query::QueryPlan::Decode(encoded_plan);
  if (!plan.ok()) return plan.status();

  std::vector<index::IndexEntry> entries = t.index->ScanRange(
      Slice(plan->start_key), Slice(plan->end_key), effective_ts);
  // Chunks are fetched under mu_ like Get: buffered exact versions first,
  // then one sieved sweep for the misses (ReadManyLocked flags stale log
  // pointers for reseed). Only when no applied version lies above the
  // snapshot are the fetched versions each key's newest, so only then may
  // they be cached.
  const bool cacheable = effective_ts >= t.max_applied_ts;
  auto fetch = [&](std::span<const index::IndexEntry> chunk)
      -> Result<std::vector<std::string>> {
    return tablet::FetchChunk(
        &buffer_, BufferPrefix(uid), chunk,
        // FetchChunk calls this synchronously, inside this function's
        // MutexLock on mu_; the analysis cannot follow the std::function
        // boundary.
        [&](uint32_t instance, const std::vector<log::LogPtr>& ptrs)
            NO_THREAD_SAFETY_ANALYSIS {
              return ReadManyLocked(&t, instance, ptrs);
            },
        cacheable);
  };
  auto result =
      query::ExecuteOverEntries(*plan, entries, fetch, options.batch_rows);
  if (!result.ok()) return result.status();
  query::RecordScanMetrics(result->stats);
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
