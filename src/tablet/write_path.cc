#include "src/tablet/write_path.h"

#include <algorithm>

#include "src/tablet/tablet_server.h"

namespace logbase::tablet {

namespace {

log::LogRecord CommitRecord(uint64_t txn_id, uint64_t commit_ts) {
  log::LogRecord commit;
  commit.type = log::LogRecordType::kCommit;
  commit.txn_id = txn_id;
  commit.commit_ts = commit_ts;
  return commit;
}

}  // namespace

Result<StagedWrite> WritePath::Stage(WriteSet set, log::AckMode ack) {
  if (!server_->running()) return Status::Unavailable("tablet server is down");
  // Admission first and once: a shed write set draws no timestamps and
  // reaches no log (I7).
  uint64_t payload = 0;
  for (const WriteOp& op : set.ops) payload += op.key.size() + op.value.size();
  LOGBASE_RETURN_NOT_OK(server_->admission_.Admit(
      set.txn_id == 0 && !set.ops.empty() ? set.ops[0].tablet_uid : "",
      std::max<uint64_t>(set.ops.size(), 1), payload));

  StagedWrite staged;
  staged.set = std::move(set);
  std::vector<log::LogRecord> records;
  records.reserve(staged.set.ops.size() + 1);
  {
    MutexLock l(mu_);  // the seal and conflict checks and staged_ together
    LOGBASE_RETURN_NOT_OK(CheckConflicts(staged.set.ops));
    for (WriteOp& op : staged.set.ops) {
      Tablet* tablet = server_->FindTablet(op.tablet_uid);
      if (tablet == nullptr) return Status::NotFound("unknown tablet");
      if (tablet->sealed()) {
        return Status::Unavailable("tablet sealed for migration: " +
                                   op.tablet_uid);
      }
      op.timestamp = staged.set.txn_id == 0 ? server_->NextLocalTimestamp()
                                            : staged.set.commit_ts;
      const TabletDescriptor& d = tablet->descriptor();
      log::LogRecord& record = records.emplace_back();
      record.type = op.is_delete ? log::LogRecordType::kInvalidate
                                 : log::LogRecordType::kData;
      record.key.table_id = d.table_id;
      record.key.tablet_id = d.packed_id();
      record.txn_id = staged.set.txn_id;
      record.row.primary_key = op.key;
      record.row.column_group = d.column_group;
      record.row.timestamp = record.commit_ts = op.timestamp;
      record.value = op.value;
    }
    // The records land at or after the current tail, and seqs grow with
    // it: the first staged write has the lowest floor.
    staged.seq = next_seq_++;
    staged_.emplace(staged.seq,
                    Entry{server_->writer_->Position(), staged.set.ops});
  }
  if (staged.set.with_commit) {
    records.push_back(CommitRecord(staged.set.txn_id, staged.set.commit_ts));
  }
  auto ticket = server_->writer_->Submit(&records, ack);
  if (!ticket.ok()) {
    Release(&staged);
    return ticket.status();
  }
  staged.ticket = *ticket;
  return staged;
}

Status WritePath::MakeDurable(StagedWrite* staged) {
  Status durable = server_->running()
                       ? server_->writer_->Wait(staged->ticket, &staged->ptrs)
                       : Status::Unavailable("tablet server is down");
  if (!durable.ok()) Release(staged);
  return durable;
}

Status WritePath::Publish(StagedWrite* staged) {
  const std::vector<WriteOp>& ops = staged->set.ops;
  const uint64_t threshold = server_->options_.checkpoint_update_threshold;
  Status first_error;
  for (size_t i = 0; i < ops.size(); i++) {
    const WriteOp& op = ops[i];
    Tablet* tablet = server_->FindTablet(op.tablet_uid);
    if (tablet == nullptr) continue;  // closed: the new owner replays it
    // The index change replay makes for the same record (ApplyCommitted).
    Status s = op.is_delete
                   ? tablet->index()->RemoveAllVersions(Slice(op.key))
                   : tablet->index()->Insert(Slice(op.key), op.timestamp,
                                             staged->ptrs[i]);
    if (s.ok()) {
      tablet->RecordWrite(op.key.size() + op.value.size());
      tablet->RecordUpdate();
      if (threshold != 0 && tablet->updates_since_persist() >= threshold) {
        staged->checkpoint_due = true;
      }
      std::string buffer_key = BufferKey(Slice(op.tablet_uid), Slice(op.key));
      if (op.is_delete) {
        server_->buffer_.Invalidate(buffer_key);
      } else {
        server_->buffer_.Put(buffer_key, CachedRecord{op.timestamp, op.value});
      }
      if (tablet->has_secondary_indexes()) {
        s = op.is_delete ? tablet->NotifySecondaryDelete(Slice(op.key))
                         : tablet->NotifySecondaryWrite(
                               Slice(op.key), op.timestamp, Slice(op.value));
      }
    }
    if (first_error.ok()) first_error = s;
  }
  // Later auto-commit writes must draw above a coordinator-issued commit
  // timestamp, or they would sort below the transaction's versions.
  if (staged->set.txn_id != 0) {
    server_->AdvanceTimestampsBeyond(staged->set.commit_ts);
  }
  Release(staged);
  return first_error;
}

Status WritePath::Complete(StagedWrite* staged) {
  LOGBASE_RETURN_NOT_OK(MakeDurable(staged));
  return Publish(staged);
}

void WritePath::Release(StagedWrite* staged) {
  MutexLock l(mu_);
  staged_.erase(staged->seq);  // absent when released or forgotten by Clear
  staged->seq = 0;
}

Status WritePath::AppendCommit(uint64_t txn_id, uint64_t commit_ts,
                               log::AckMode ack) {
  if (!server_->running()) return Status::Unavailable("tablet server is down");
  return server_->writer_->Append(CommitRecord(txn_id, commit_ts), ack)
      .status();
}

Status WritePath::Seal(const std::string& uid) {
  MutexLock l(mu_);
  Tablet* tablet = server_->FindTablet(uid);
  if (tablet == nullptr) return Status::NotFound("unknown tablet");
  for (const auto& [seq, entry] : staged_) {
    for (const WriteOp& op : entry.ops) {
      if (op.tablet_uid == uid) {
        return Status::Busy("tablet has unpublished writes: " + uid);
      }
    }
  }
  tablet->Seal();
  return Status::OK();
}

Status WritePath::CheckConflicts(std::span<const WriteOp> ops) const {
  const bool deletes = std::any_of(ops.begin(), ops.end(),
                                   [](const WriteOp& op) { return op.is_delete; });
  for (const auto& [seq, entry] : staged_) {
    for (const WriteOp& staged : entry.ops) {
      if (!deletes && !staged.is_delete) continue;
      for (const WriteOp& op : ops) {
        if ((staged.is_delete || op.is_delete) && staged.key == op.key &&
            staged.tablet_uid == op.tablet_uid) {
          return Status::Busy("a write of the same key is unpublished: " +
                              op.key);
        }
      }
    }
  }
  return Status::OK();
}

log::LogPosition WritePath::StagedFloor(log::LogPosition tail) const {
  MutexLock l(mu_);
  return staged_.empty() ? tail : std::min(tail, staged_.begin()->second.floor);
}

void WritePath::Clear() {
  MutexLock l(mu_);
  staged_.clear();
}

}  // namespace logbase::tablet
