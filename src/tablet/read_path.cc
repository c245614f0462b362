#include "src/tablet/read_path.h"

#include <map>
#include <utility>

#include "src/obs/trace.h"
#include "src/query/plan.h"
#include "src/sim/costs.h"
#include "src/sim/sim_context.h"

namespace logbase::tablet {

std::string BufferKey(const Slice& uid, const Slice& key) {
  std::string buffer_key;
  buffer_key.reserve(uid.size() + 1 + key.size());
  buffer_key.append(uid.data(), uid.size());
  buffer_key.push_back('\0');
  buffer_key.append(key.data(), key.size());
  return buffer_key;
}

Result<ReadValue> ReadPoint(const ReadContext& ctx, const Slice& key,
                            uint64_t snapshot, bool cacheable) {
  const std::string buffer_key = BufferKey(ctx.uid, key);
  CachedRecord cached;
  if (ctx.buffer->Get(buffer_key, &cached) && cached.timestamp <= snapshot) {
    return ReadValue{cached.timestamp, std::move(cached.value)};
  }
  Result<index::IndexEntry> entry = [&] {
    obs::Span probe("index.probe");
    return ctx.index->GetAsOf(key, snapshot);
  }();
  if (!entry.ok()) return entry.status();

  log::LogRecord record;
  {
    obs::Span span("log.read");
    LOGBASE_RETURN_NOT_OK((*ctx.logs)(
        entry->ptr.instance, [&](log::LogReader* reader) -> Status {
          auto read = reader->Read(entry->ptr);
          if (!read.ok()) return read.status();
          record = std::move(*read);
          return Status::OK();
        }));
    sim::ChargeCpu(sim::costs::kRecordCodecUs);
  }
  if (record.row.timestamp != entry->timestamp) {
    return Status::Corruption("index points at wrong record version");
  }
  if (cacheable) {
    ctx.buffer->Put(buffer_key, CachedRecord{entry->timestamp, record.value});
  }
  return ReadValue{entry->timestamp, std::move(record.value)};
}

Result<std::vector<std::string>> FetchChunk(
    const ReadContext& ctx, std::span<const index::IndexEntry> entries,
    bool cacheable) {
  std::vector<std::string> values(entries.size());
  // Buffer misses per log instance: entry positions and their pointers.
  struct Misses {
    std::vector<size_t> at;
    std::vector<log::LogPtr> ptrs;
  };
  std::map<uint32_t, Misses> misses;
  for (size_t i = 0; i < entries.size(); i++) {
    CachedRecord cached;
    if (ctx.buffer->GetVersion(BufferKey(ctx.uid, Slice(entries[i].key)),
                               entries[i].timestamp, &cached)) {
      values[i] = std::move(cached.value);
      continue;
    }
    Misses& m = misses[entries[i].ptr.instance];
    m.at.push_back(i);
    m.ptrs.push_back(entries[i].ptr);
  }
  for (auto& [instance, m] : misses) {
    std::vector<log::LogRecord> records;
    {
      obs::Span span("log.read");
      LOGBASE_RETURN_NOT_OK((*ctx.logs)(
          instance, [&](log::LogReader* reader) -> Status {
            auto read = reader->ReadMany(m.ptrs);
            if (!read.ok()) return read.status();
            records = std::move(*read);
            return Status::OK();
          }));
      sim::ChargeCpu(static_cast<sim::VirtualTime>(records.size()) *
                     sim::costs::kRecordCodecUs);
    }
    for (size_t k = 0; k < m.at.size(); k++) {
      const index::IndexEntry& entry = entries[m.at[k]];
      log::LogRecord& record = records[k];
      if (record.row.timestamp != entry.timestamp) {
        return Status::Corruption("index points at wrong record version");
      }
      if (cacheable) {
        ctx.buffer->Put(BufferKey(ctx.uid, Slice(entry.key)),
                        CachedRecord{entry.timestamp, record.value});
      }
      values[m.at[k]] = std::move(record.value);
    }
  }
  return values;
}

Result<query::TabletResult> ScanPlan(const ReadContext& ctx,
                                     const Slice& encoded_plan,
                                     uint64_t snapshot, size_t batch_rows,
                                     bool cacheable,
                                     uint64_t* scanned_bytes) {
  auto plan = query::QueryPlan::Decode(encoded_plan);
  if (!plan.ok()) return plan.status();
  std::vector<index::IndexEntry> entries = [&] {
    obs::Span probe("index.probe");
    return ctx.index->ScanRange(Slice(plan->start_key), Slice(plan->end_key),
                                snapshot);
  }();
  uint64_t bytes = 0;
  auto fetch = [&](std::span<const index::IndexEntry> chunk)
      -> Result<std::vector<std::string>> {
    auto values = FetchChunk(ctx, chunk, cacheable);
    if (values.ok()) {
      for (size_t i = 0; i < chunk.size(); i++) {
        bytes += chunk[i].key.size() + (*values)[i].size();
      }
    }
    return values;
  };
  auto result = query::ExecuteOverEntries(*plan, entries, fetch, batch_rows);
  if (!result.ok()) return result.status();
  query::RecordScanMetrics(result->stats);
  if (scanned_bytes != nullptr) *scanned_bytes = bytes;
  return result;
}

std::vector<ReadRow> RowsFromBatches(
    const std::vector<query::ColumnBatch>& batches) {
  std::vector<ReadRow> rows;
  for (const query::ColumnBatch& batch : batches) {
    const query::BatchColumn* raw = batch.Find(query::kRawValueColumn);
    for (size_t i = 0; i < batch.NumRows(); i++) {
      ReadRow row;
      row.key = batch.keys[i];
      row.timestamp = batch.timestamps[i];
      if (raw != nullptr && raw->present[i] != 0) row.value = raw->cells[i];
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace logbase::tablet
