// Recovery (paper §3.8): reload the persisted index files named by the last
// checkpoint block, then redo the log from the checkpoint position. Redo is
// an idempotent upsert keyed by (key, write timestamp); uncommitted
// transactional entries are ignored (their COMMIT record never appears) and
// invalidated entries re-apply deletions. Repeated crashes during recovery
// simply redo again.
//
// Also implements tablet adoption after *permanent* server failures: the new
// owner seeds the tablet from the dead server's checkpoint and redoes the
// dead log's tail filtered to the adopted tablet, reading everything from
// the shared DFS. Read replicas seed and tail through the same functions.

#include <algorithm>

#include "src/index/index_checkpoint.h"
#include "src/tablet/checkpoint_internal.h"
#include "src/tablet/tablet_server.h"
#include "src/util/logging.h"

namespace logbase::tablet {

namespace {

/// Replays `redo` to the log end, adding what it read to `stats`.
Status Redo(ReplayCursor* redo, const ReplayCursor::Apply& apply,
            RecoveryStats* stats) {
  Status redone = redo->Poll(apply);
  if (stats != nullptr) {
    stats->redo_records += redo->records_read();
    stats->redo_bytes += redo->bytes_read();
  }
  return redone;
}

}  // namespace

Status ApplyCommitted(const ReplayCursor::Op& op) {
  if (op.is_delete) return op.target->RemoveAllVersions(Slice(op.key));
  return op.target->Insert(Slice(op.key), op.timestamp, op.ptr);
}

ReplayCursor::Filter RangeFilter(const TabletDescriptor& descriptor,
                                 index::MultiVersionIndex* dest) {
  return [descriptor, dest](const log::LogRecord& record)
             -> index::MultiVersionIndex* {
    TabletDescriptor named = TabletDescriptor::FromPackedId(
        record.key.table_id, record.key.tablet_id);
    if (named.table_id != descriptor.table_id ||
        named.column_group != descriptor.column_group ||
        !descriptor.Contains(Slice(record.row.primary_key))) {
      return nullptr;
    }
    return dest;
  };
}

Result<CheckpointSeed> SeedFromCheckpoint(FileSystem* fs,
                                          const std::string& ckpt_dir,
                                          const TabletDescriptor& descriptor,
                                          index::MultiVersionIndex* dest,
                                          RecoveryStats* stats) {
  namespace ci = checkpoint_internal;
  CheckpointSeed seed;
  if (fs->Exists(ci::MetaPath(ckpt_dir))) {
    ci::CheckpointMeta meta;
    LOGBASE_RETURN_NOT_OK(ci::LoadMeta(fs, ckpt_dir, &meta));
    // Matched by range overlap, never by uid: a split child loads its half
    // of the parent's checkpointed index.
    for (const auto& [d, source] : meta.tablets) {
      if (!d.Overlaps(descriptor)) continue;
      std::string idx_path = ci::IndexFilePath(ckpt_dir, d.uid());
      if (!fs->Exists(idx_path)) continue;
      uint64_t before = dest->num_entries();
      LOGBASE_RETURN_NOT_OK(index::LoadIndexCheckpointFiltered(
          fs, idx_path, dest, [&descriptor](const Slice& key) {
            return descriptor.Contains(key);
          }));
      seed.position = meta.position;
      if (stats != nullptr) {
        stats->loaded_checkpoint = true;
        stats->checkpoint_entries += dest->num_entries() - before;
      }
    }
  }
  dest->VisitAll([&seed](const index::IndexEntry& entry) {
    seed.max_timestamp = std::max(seed.max_timestamp, entry.timestamp);
  });
  return seed;
}

Status RunRecovery(TabletServer* server, RecoveryStats* stats) {
  namespace ci = checkpoint_internal;
  FileSystem* fs = server->fs_.get();
  const std::string ckpt_dir = server->checkpoint_dir();

  log::LogPosition start{0, 0};
  uint64_t next_lsn = 1;

  if (fs->Exists(ci::MetaPath(ckpt_dir))) {
    ci::CheckpointMeta meta;
    LOGBASE_RETURN_NOT_OK(ci::LoadMeta(fs, ckpt_dir, &meta));
    start = meta.position;
    next_lsn = meta.next_lsn;
    if (stats != nullptr) stats->loaded_checkpoint = true;

    for (const auto& [descriptor, source] : meta.tablets) {
      LOGBASE_RETURN_NOT_OK(server->OpenTablet(descriptor));
      Tablet* tablet = server->FindTablet(descriptor.uid());
      tablet->set_source_instance(source);
      std::string idx_path = ci::IndexFilePath(ckpt_dir, descriptor.uid());
      if (fs->Exists(idx_path)) {
        LOGBASE_RETURN_NOT_OK(
            index::LoadIndexCheckpoint(fs, idx_path, tablet->index()));
        if (stats != nullptr) {
          stats->checkpoint_entries += tablet->index()->num_entries();
        }
      }
    }
  }

  // Redo the tail of our own log. Records of tablets we have not seen yet
  // (no checkpoint — e.g. first crash before any checkpoint) recreate their
  // tablets on the fly; the master's later OpenTablet is a no-op.
  auto reader = server->ReaderFor(server->server_id());
  if (!reader.ok()) return reader.status();
  ReplayCursor redo(
      *reader, start,
      [server](const log::LogRecord& record) -> index::MultiVersionIndex* {
        Tablet* tablet = server->RouteRecord(record);
        if (tablet != nullptr) return tablet->index();
        TabletDescriptor d = TabletDescriptor::FromPackedId(
            record.key.table_id, record.key.tablet_id);
        if (!server->OpenTablet(d).ok()) return nullptr;
        return server->FindTablet(d.uid())->index();
      });
  LOGBASE_RETURN_NOT_OK(Redo(&redo, ApplyCommitted, stats));

  LOGBASE_LOG(kInfo, "server %d recovered: redo from segment %u",
              server->server_id(), start.segment);
  return server->writer_->Open(std::max(next_lsn, redo.max_lsn() + 1));
}

Status TabletServer::AdoptTablet(const TabletDescriptor& descriptor,
                                 uint32_t source_instance,
                                 RecoveryStats* stats) {
  LOGBASE_RETURN_NOT_OK(OpenTablet(descriptor));
  Tablet* tablet = FindTablet(descriptor.uid());
  tablet->set_source_instance(source_instance);

  auto seed = SeedFromCheckpoint(fs_.get(), CheckpointDirFor(source_instance),
                                 descriptor, tablet->index(), stats);
  if (!seed.ok()) return seed.status();

  // Redo the source's log tail, filtered to the adopted range (the paper's
  // log split: one shared log, per-tablet extraction).
  auto reader = ReaderFor(source_instance);
  if (!reader.ok()) return reader.status();
  ReplayCursor redo(*reader, seed->position,
                    RangeFilter(descriptor, tablet->index()));
  uint64_t max_ts = seed->max_timestamp;
  LOGBASE_RETURN_NOT_OK(Redo(
      &redo,
      [&max_ts](const ReplayCursor::Op& op) {
        max_ts = std::max(max_ts, op.timestamp);
        return ApplyCommitted(op);
      },
      stats));

  // The dead owner drew timestamp blocks this server has not seen; writes
  // issued from a stale local block would sort below the adopted versions
  // and be invisible to latest-reads (a lost acknowledged write).
  AdvanceTimestampsBeyond(max_ts);

  LOGBASE_LOG(kInfo, "server %d adopted tablet %s from instance %u",
              server_id(), descriptor.uid().c_str(), source_instance);
  return Status::OK();
}

}  // namespace logbase::tablet
