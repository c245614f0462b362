// Committed-only log replay (paper §3.8): the one routine that recovery
// redo, tablet adoption and read replicas use to apply a log instance.
//
// A TailCursor remembers the position after the last record it read and, on
// each Poll, scans every record appended since then. Re-listing segments per
// poll picks up rolled segments; a reclaimed start segment (compaction)
// resumes at the next existing segment. Only the low write lane is read:
// compaction outputs are covered by the checkpoint the compaction wrote.
//
// Every data/invalidate record first passes the caller's filter, which runs
// as the record is read and names the Target the write applies to (nullptr
// skips it). Auto-commit writes are delivered at once; transactional writes
// wait per txn id and are delivered, in log order, when their COMMIT record
// is read. Writes whose COMMIT never appears are never delivered: the
// transaction did not commit.

#ifndef LOGBASE_LOG_TAIL_CURSOR_H_
#define LOGBASE_LOG_TAIL_CURSOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/log/log_reader.h"
#include "src/log/log_record.h"
#include "src/util/result.h"

namespace logbase::log {

template <typename Target>
class TailCursor {
 public:
  /// One committed write.
  struct Op {
    Target* target = nullptr;  // what the filter chose for the record
    bool is_delete = false;
    std::string key;
    uint64_t timestamp = 0;
    LogPtr ptr;
    std::string value;
  };
  using Filter = std::function<Target*(const LogRecord& record)>;
  using Apply = std::function<Status(const Op& op)>;

  TailCursor(LogReader* reader, LogPosition start, Filter filter)
      : reader_(reader), filter_(std::move(filter)), pos_(start) {}

  /// Reads from the current position to the end of the log, passing every
  /// committed write to `apply` in commit order. A clean end of log
  /// (including a partially flushed trailing frame, retried next poll) is
  /// not an error. A non-OK status from `apply` or the scan stops the poll;
  /// the position stays after the last fully handled record.
  Status Poll(const Apply& apply) {
    auto scanner = reader_->NewScanner(pos_, kLowLaneSegmentLimit);
    if (!scanner.ok()) return scanner.status();
    for (; (*scanner)->Valid(); (*scanner)->Next()) {
      const LogRecord& record = (*scanner)->record();
      const LogPtr ptr = (*scanner)->ptr();
      LOGBASE_RETURN_NOT_OK(Handle(record, ptr, apply));
      pos_ = LogPosition{ptr.segment, ptr.offset + ptr.size};
      max_lsn_ = std::max(max_lsn_, record.key.lsn);
      records_read_++;
      bytes_read_ += ptr.size;
    }
    // Corruption/I/O errors surface here without moving past the bad frame.
    return (*scanner)->status();
  }

  /// Largest LSN read so far (0 before any record).
  uint64_t max_lsn() const { return max_lsn_; }
  /// Records (of every type, filtered or not) and their bytes read so far.
  uint64_t records_read() const { return records_read_; }
  uint64_t bytes_read() const { return bytes_read_; }

  /// Smallest timestamp among writes awaiting their COMMIT; ~0 when none.
  uint64_t min_pending_timestamp() const {
    uint64_t min_ts = ~0ull;
    for (const auto& [txn_id, ops] : pending_) {
      for (const Op& op : ops) min_ts = std::min(min_ts, op.timestamp);
    }
    return min_ts;
  }

 private:
  Status Handle(const LogRecord& record, const LogPtr& ptr,
                const Apply& apply) {
    switch (record.type) {
      case LogRecordType::kData:
      case LogRecordType::kInvalidate: {
        Target* target = filter_(record);
        if (target == nullptr) return Status::OK();
        Op op{target, record.type == LogRecordType::kInvalidate,
              record.row.primary_key, record.row.timestamp, ptr,
              record.value};
        if (record.txn_id == 0) return apply(op);
        pending_[record.txn_id].push_back(std::move(op));
        return Status::OK();
      }
      case LogRecordType::kCommit: {
        auto it = pending_.find(record.txn_id);
        if (it == pending_.end()) return Status::OK();
        for (const Op& op : it->second) LOGBASE_RETURN_NOT_OK(apply(op));
        pending_.erase(it);
        return Status::OK();
      }
      case LogRecordType::kBatchHeader:
        // Consumed inside the scanner; never surfaced as a record.
        return Status::OK();
    }
    return Status::OK();
  }

  LogReader* const reader_;
  const Filter filter_;
  LogPosition pos_;
  // Transactional writes awaiting their COMMIT, by txn id.
  std::map<uint64_t, std::vector<Op>> pending_;
  uint64_t max_lsn_ = 0;
  uint64_t records_read_ = 0;
  uint64_t bytes_read_ = 0;
};

}  // namespace logbase::log

#endif  // LOGBASE_LOG_TAIL_CURSOR_H_
