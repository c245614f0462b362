// The read protocol both serving tiers run (paper §3.5/§3.6.2): probe the
// read buffer, then the in-memory multiversion index, then read the log.
// Primaries (TabletServer) and read replicas (ReplicaServer) differ only in
// what they pass in — their buffer, the tablet's index, how they reach the
// logs, the snapshot and whether the read may fill the buffer — so a point
// read and a plan scan each exist once, here.
//
// The caching rule lives here too. The buffer holds, per key, the newest
// version the tier has seen:
//   - a cached version answers a read only if it is visible at the read's
//     snapshot (cached timestamp <= snapshot);
//   - a fetched version enters the buffer only when the caller says the read
//     is `cacheable`, i.e. it ran at the tier's newest snapshot, so every
//     fetched version is its key's newest.

#ifndef LOGBASE_TABLET_READ_PATH_H_
#define LOGBASE_TABLET_READ_PATH_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/index/multiversion_index.h"
#include "src/log/log_reader.h"
#include "src/query/column_batch.h"
#include "src/query/executor.h"
#include "src/tablet/read_buffer.h"
#include "src/util/result.h"
#include "src/util/slice.h"

namespace logbase::tablet {

/// A read result: the version (write timestamp) and value.
struct ReadValue {
  uint64_t timestamp = 0;
  std::string value;
};

/// A row surfaced by a scan.
struct ReadRow {
  std::string key;
  uint64_t timestamp = 0;
  std::string value;
};

/// The read buffer key of `key` in tablet `uid`; both tiers key their
/// buffers this way.
std::string BufferKey(const Slice& uid, const Slice& key);

/// One read against a log instance's reader: LogReader::Read for a point
/// read, LogReader::ReadMany for a scan chunk's sweep.
using LogReadOp = std::function<Status(log::LogReader* reader)>;

/// How a tier reaches the logs: runs `op` on the reader of log instance
/// `instance`. The tier picks the reader and maps a failed read (a replica
/// flags a compacted-away pointer for reseed).
using LogAccess = std::function<Status(uint32_t instance, const LogReadOp& op)>;

/// One tablet as a tier serves it. Borrowed for the duration of one read.
struct ReadContext {
  ReadBuffer* buffer;
  Slice uid;  // buffer keys are BufferKey(uid, key)
  const index::MultiVersionIndex* index;
  const LogAccess* logs;
};

/// Point read at `snapshot` (~0 = latest): a buffered version visible at
/// the snapshot, else the index's newest version <= snapshot (under the
/// `index.probe` span) and one LogReader::Read of its record (under
/// `log.read`). The record must carry the entry's timestamp (Corruption
/// otherwise). NotFound when no version is visible.
Result<ReadValue> ReadPoint(const ReadContext& ctx, const Slice& key,
                            uint64_t snapshot, bool cacheable);

/// Values of one chunk of index entries, in entry order. An entry whose
/// exact version is buffered is served from the buffer; the misses are read
/// as one sieved LogReader::ReadMany sweep per log instance, and each
/// record must carry its entry's timestamp (Corruption otherwise).
Result<std::vector<std::string>> FetchChunk(
    const ReadContext& ctx, std::span<const index::IndexEntry> entries,
    bool cacheable);

/// Plan scan: decodes the wire-encoded plan, scans its range at `snapshot`
/// (under `index.probe`), runs the pushdown executor with FetchChunk per
/// chunk of `batch_rows`, and records the query.scan metrics.
/// `scanned_bytes` (optional) receives the key + value bytes read.
Result<query::TabletResult> ScanPlan(const ReadContext& ctx,
                                     const Slice& encoded_plan,
                                     uint64_t snapshot, size_t batch_rows,
                                     bool cacheable,
                                     uint64_t* scanned_bytes = nullptr);

/// The rows of raw-value batches (a plan with an empty projection ships
/// each stored value verbatim under query::kRawValueColumn).
std::vector<ReadRow> RowsFromBatches(
    const std::vector<query::ColumnBatch>& batches);

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_READ_PATH_H_
