// The single log instance of a tablet server (paper §3.4 design choice: one
// log per server for all its tablets, to keep writes sequential). The log is
// an infinite sequence of 64 MB segments, each an append-only DFS file.
//
// Writes flow through the group-commit AppendQueue (§3.7.2 + the BtrLog
// playbook): Submit() enqueues records and returns a ticket, Wait() blocks
// until the record's batch is durable under its ack mode. Each flushed batch
// is one continuous on-disk unit — a BatchHeader frame followed by the
// batch's record frames, CRC'd as a whole — and batches are pipelined to the
// DFS with quorum acks (see SyncPolicy in src/util/io.h). AppendBatch/Append
// are the synchronous wrappers (Submit + Wait).

#ifndef LOGBASE_LOG_LOG_WRITER_H_
#define LOGBASE_LOG_LOG_WRITER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/log/append_queue.h"
#include "src/log/log_record.h"
#include "src/util/io.h"
#include "src/util/result.h"

#include "src/util/ordered_mutex.h"

namespace logbase::log {

/// Position in the log: everything before it is persisted.
struct LogPosition {
  uint32_t segment = 0;
  uint64_t offset = 0;

  bool operator<(const LogPosition& o) const {
    return segment != o.segment ? segment < o.segment : offset < o.offset;
  }
  bool operator==(const LogPosition& o) const {
    return segment == o.segment && offset == o.offset;
  }
};

/// The live writer appends to segments numbered below this limit (the low
/// lane); compaction generation `g` writes segments from
/// g * kLowLaneSegmentLimit up. Redo and tailing read the low lane only.
inline constexpr uint32_t kLowLaneSegmentLimit = 1u << 24;

std::string SegmentFileName(const std::string& dir, uint32_t segment);
/// Inverse of SegmentFileName; false when `path` is not a segment file.
bool ParseSegmentNumber(const std::string& path, uint32_t* segment);

class LogWriter {
 public:
  /// `dir` is the server's log directory in the DFS; `instance` is the log
  /// instance id stamped into every LogPtr (the owning server's stable id).
  LogWriter(FileSystem* fs, std::string dir, uint32_t instance = 0,
            uint64_t segment_bytes = 64ull << 20,
            AppendQueueOptions queue_options = {});

  /// Prepares for appending: scans existing segments and starts a fresh one
  /// after the highest (used both at first start and after recovery).
  /// `first_lsn` seeds LSN assignment (paper: LSN restarts from the last
  /// checkpointed LSN).
  Status Open(uint64_t first_lsn = 1) EXCLUDES(mu_);

  /// Appends one record (assigning its LSN) and waits for durability.
  Result<LogPtr> Append(LogRecord record, AckMode ack = AckMode::kQuorum)
      EXCLUDES(mu_);

  /// Group commit: assigns LSNs, coalesces the records with any other
  /// pending submissions and waits for the batch's durability ack. ptrs[i]
  /// locates records[i].
  Status AppendBatch(std::vector<LogRecord>* records,
                     std::vector<LogPtr>* ptrs,
                     AckMode ack = AckMode::kQuorum) EXCLUDES(mu_);

  /// Async half of group commit: stamps LSNs, encodes the records into the
  /// open batch and returns without waiting for durability. The records'
  /// pointers (and the durability ack) arrive at Wait().
  Result<AppendTicket> Submit(std::vector<LogRecord>* records,
                              AckMode ack = AckMode::kQuorum) EXCLUDES(mu_);

  /// Completes a Submit: flushes the ticket's batch if it is still open
  /// (group-commit leader), advances the caller's virtual clock to the
  /// batch's durability ack and fills `ptrs` (one per submitted record).
  Status Wait(const AppendTicket& ticket, std::vector<LogPtr>* ptrs)
      EXCLUDES(mu_);

  /// Seals + flushes the open batch (durability barrier before checkpoints
  /// and rolls). Pending waiters still collect their tickets afterwards.
  Status Flush() EXCLUDES(mu_);

  /// Closes the current segment and starts a new one (compaction freezes the
  /// input set this way). Flushes the open batch first.
  Status Roll() EXCLUDES(mu_);

  /// The tail position (next batch lands here); excludes unflushed
  /// submissions — call Flush() first for a durable-tail barrier.
  LogPosition Position() const EXCLUDES(mu_);

  uint64_t next_lsn() const EXCLUDES(mu_);
  uint64_t bytes_written() const EXCLUDES(mu_);
  /// Records waiting in the open (unflushed) batch.
  size_t pending_records() const EXCLUDES(mu_);

 private:
  Status RollSegmentLocked() REQUIRES(mu_);
  AppendQueue::FlushOutcome FlushSealedBatchLocked(
      const AppendQueue::SealedBatch& batch) REQUIRES(mu_);
  /// Sink trampoline handed to the AppendQueue. Flushes only ever run
  /// inside queue_->Submit/Wait/Flush, which this writer invokes solely
  /// while holding mu_ — but that proof crosses the std::function callback
  /// boundary, which the thread-safety analysis cannot follow.
  AppendQueue::FlushOutcome SinkEntry(const AppendQueue::SealedBatch& batch)
      NO_THREAD_SAFETY_ANALYSIS {
    return FlushSealedBatchLocked(batch);
  }

  FileSystem* const fs_;
  const std::string dir_;
  const uint32_t instance_;
  const uint64_t segment_bytes_;
  const AppendQueueOptions queue_options_;

  mutable OrderedMutex mu_{lockrank::kLogWriter, "log.writer"};
  std::unique_ptr<WritableFile> file_ GUARDED_BY(mu_);
  std::unique_ptr<AppendQueue> queue_ GUARDED_BY(mu_);
  uint32_t segment_ GUARDED_BY(mu_) = 0;
  uint64_t segment_offset_ GUARDED_BY(mu_) = 0;
  uint64_t next_lsn_ GUARDED_BY(mu_) = 1;
  uint64_t bytes_written_ GUARDED_BY(mu_) = 0;
};

}  // namespace logbase::log

#endif  // LOGBASE_LOG_LOG_WRITER_H_
