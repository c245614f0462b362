// The write protocol (paper §3.4, §3.6.1, §3.7.2; DESIGN.md §4.3), the
// write-side twin of read_path. Every write set (puts and deletes on one
// server, auto-committed or one participant's share of a transaction) is
// staged into the log (admission, conflict and seal checks, records,
// Submit), made durable (Wait) and only then published into the index,
// read buffer and secondary indexes. Publication is never refused. The
// staged-but-unpublished set bounds checkpoint positions, seals, and
// conflicting writes of one key.

#ifndef LOGBASE_TABLET_WRITE_PATH_H_
#define LOGBASE_TABLET_WRITE_PATH_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/log/log_writer.h"
#include "src/util/ordered_mutex.h"
#include "src/util/result.h"

namespace logbase::tablet {

class TabletServer;

struct WriteOp {
  std::string tablet_uid;
  std::string key;
  std::string value;  // empty for a delete
  bool is_delete = false;
  uint64_t timestamp = 0;  // the version; assigned by Stage
};

/// Auto-committed when `txn_id` is 0 (each op draws a local timestamp),
/// else one participant's share of transaction `txn_id` at `commit_ts`.
struct WriteSet {
  std::vector<WriteOp> ops;
  uint64_t txn_id = 0;
  uint64_t commit_ts = 0;
  bool with_commit = false;  // the COMMIT record joins the data's batch

  void Put(std::string uid, std::string key, std::string value) {
    ops.push_back(WriteOp{std::move(uid), std::move(key), std::move(value)});
  }
  void Delete(std::string uid, std::string key) {
    ops.push_back(WriteOp{std::move(uid), std::move(key), {}, true});
  }
};

/// A write set in the log's group-commit queue, not yet visible. It must be
/// published or released exactly once, before it is destroyed: the staged
/// set reads its ops in place. Moving it keeps them in place.
struct StagedWrite {
  StagedWrite() = default;
  StagedWrite(StagedWrite&&) = default;
  StagedWrite& operator=(StagedWrite&&) = default;

  WriteSet set;
  log::AppendTicket ticket;
  std::vector<log::LogPtr> ptrs;  // set by MakeDurable, parallel to ops
  uint64_t seq = 0;  // staged-set slot; 0 once published or released
  bool checkpoint_due = false;  // Publish: a tablet reached the threshold
};

class WritePath {
 public:
  explicit WritePath(TabletServer* server) : server_(server) {}
  WritePath(const WritePath&) = delete;
  WritePath& operator=(const WritePath&) = delete;

  /// Unavailable when shed or a tablet is sealed, NotFound for an unknown
  /// tablet, Busy when a staged write conflicts; nothing reached the log
  /// then.
  Result<StagedWrite> Stage(WriteSet set,
                            log::AckMode ack = log::AckMode::kQuorum)
      EXCLUDES(mu_);
  /// On failure the write is released: never acked, never visible.
  Status MakeDurable(StagedWrite* staged) EXCLUDES(mu_);
  /// Publishes every op, then returns the first LSM index I/O error if any.
  Status Publish(StagedWrite* staged) EXCLUDES(mu_);
  /// MakeDurable, then Publish.
  Status Complete(StagedWrite* staged) EXCLUDES(mu_);
  /// Drops a write that will never be published; no-op when already done.
  void Release(StagedWrite* staged) EXCLUDES(mu_);
  /// 2PC phase two. Never admission-gated: a shed COMMIT would split a
  /// transaction whose other participants already committed.
  Status AppendCommit(uint64_t txn_id, uint64_t commit_ts, log::AckMode ack);

  /// Seals `uid` under the lock Stage checks seals under: Busy while a
  /// write staged on it is unpublished, NotFound when unknown.
  Status Seal(const std::string& uid) EXCLUDES(mu_);
  /// min(tail, the oldest staged write's floor): where a checkpoint taken
  /// at `tail` starts redo.
  log::LogPosition StagedFloor(log::LogPosition tail) const EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);  // the server crashed: nothing will publish

 private:
  struct Entry {
    log::LogPosition floor;  // the log tail before the write was staged
    std::span<const WriteOp> ops;  // the StagedWrite's, read in place
  };
  /// Busy when an op of `ops` and one of a staged write name the same key
  /// and either is a delete.
  Status CheckConflicts(std::span<const WriteOp> ops) const REQUIRES(mu_);

  TabletServer* const server_;
  mutable OrderedMutex mu_{lockrank::kTabletServerWrites,
                           "tablet.server.writes"};
  std::map<uint64_t, Entry> staged_ GUARDED_BY(mu_);  // by seq
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
};

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_WRITE_PATH_H_
