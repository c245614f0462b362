#include "src/dfs/data_node.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace logbase::dfs {

namespace {

obs::Counter* PreadBytes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.pread.bytes");
  return c;
}

obs::Counter* BridgedBytes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.pread.bridged_bytes");
  return c;
}

obs::Counter* WriteBytes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.write.bytes");
  return c;
}

obs::Counter* InjectedIoErrors() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("fault.injected.disk_errors");
  return c;
}

}  // namespace

std::vector<DiskRun> PlanDiskRuns(const std::vector<ReadRange>& ranges,
                                  uint64_t bridge_limit) {
  std::vector<DiskRun> runs;
  for (size_t i = 0; i < ranges.size(); i++) {
    const ReadRange& r = ranges[i];
    if (r.n == 0) continue;
    if (!runs.empty() && r.offset < runs.back().end + bridge_limit) {
      DiskRun& run = runs.back();
      if (r.offset > run.end) run.bridged += r.offset - run.end;
      run.end = std::max(run.end, r.offset + r.n);
      run.last = i + 1;
      run.requested += r.n;
      continue;
    }
    runs.push_back(DiskRun{i, i + 1, r.offset, r.offset + r.n, 0, r.n});
  }
  return runs;
}

bool DataNode::ConsumeInjectedError() const {
  int pending = injected_io_errors_.load(std::memory_order_relaxed);
  while (pending > 0) {
    if (injected_io_errors_.compare_exchange_weak(pending, pending - 1,
                                                  std::memory_order_relaxed)) {
      InjectedIoErrors()->Add();
      return true;
    }
  }
  return false;
}

DataNode::DataNode(int id, sim::DiskParams disk_params)
    : id_(id), disk_("disk-" + std::to_string(id), disk_params) {}

Status DataNode::StoreBlockData(BlockId block, uint64_t offset,
                                const Slice& data) {
  if (!alive()) return Status::Unavailable("data node is down");
  if (ConsumeInjectedError()) return Status::IOError("injected disk fault");
  MutexLock l(mu_);
  std::string& stored = blocks_[block];
  if (offset != stored.size()) {
    return Status::InvalidArgument("non-contiguous block append");
  }
  stored.append(data.data(), data.size());
  return Status::OK();
}

Status DataNode::WriteBlock(BlockId block, uint64_t offset,
                            const Slice& data) {
  obs::Span span("dfs.write");
  LOGBASE_RETURN_NOT_OK(StoreBlockData(block, offset, data));
  WriteBytes()->Add(data.size());
  disk_.Access(block, offset, data.size(), /*is_write=*/true);
  return Status::OK();
}

Result<std::string> DataNode::ReadBlock(BlockId block, uint64_t offset,
                                        uint64_t n) const {
  auto pieces = ReadBlockRanges(block, {ReadRange{offset, n}});
  if (!pieces.ok()) return pieces.status();
  return std::move((*pieces)[0]);
}

Result<std::vector<std::string>> DataNode::ReadBlockRanges(
    BlockId block, const std::vector<ReadRange>& ranges) const {
  obs::Span span("dfs.pread");
  if (!alive()) return Status::Unavailable("data node is down");
  if (ConsumeInjectedError()) return Status::IOError("injected disk fault");
  std::vector<std::string> out(ranges.size());
  {
    MutexLock l(mu_);
    auto it = blocks_.find(block);
    if (it == blocks_.end()) return Status::NotFound("block not on this node");
    const std::string& stored = it->second;
    for (size_t i = 0; i < ranges.size(); i++) {
      if (ranges[i].offset < stored.size()) {
        out[i] = stored.substr(
            ranges[i].offset,
            std::min<uint64_t>(ranges[i].n, stored.size() - ranges[i].offset));
      }
    }
  }
  // Charge the bytes this replica holds: a short replica's missing tail
  // costs no disk time.
  std::vector<ReadRange> held(ranges.size());
  for (size_t i = 0; i < ranges.size(); i++) {
    held[i] = ReadRange{ranges[i].offset, out[i].size()};
  }
  uint64_t swept = 0;
  uint64_t bridged = 0;
  for (const DiskRun& run :
       PlanDiskRuns(held, disk_.seek_equivalent_bytes())) {
    disk_.Access(block, run.begin, run.end - run.begin);
    swept += run.end - run.begin;
    bridged += run.bridged;
  }
  PreadBytes()->Add(swept);
  BridgedBytes()->Add(bridged);
  return out;
}

DataNode::ReadEstimate DataNode::EstimateRead(sim::VirtualTime start,
                                              BlockId block, uint64_t offset,
                                              uint64_t n) const {
  uint64_t bytes = 0;
  {
    MutexLock l(mu_);
    auto it = blocks_.find(block);
    if (it != blocks_.end() && offset < it->second.size()) {
      bytes = std::min<uint64_t>(n, it->second.size() - offset);
    }
  }
  if (bytes == 0) return ReadEstimate{start, 0};
  return ReadEstimate{disk_.EstimateAccess(start, block, offset, bytes),
                      bytes};
}

Status DataNode::DeleteBlock(BlockId block) {
  MutexLock l(mu_);
  blocks_.erase(block);
  return Status::OK();
}

bool DataNode::HasBlock(BlockId block) const {
  MutexLock l(mu_);
  return blocks_.count(block) > 0;
}

Result<uint64_t> DataNode::BlockSize(BlockId block) const {
  MutexLock l(mu_);
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return Status::NotFound("block not on this node");
  return static_cast<uint64_t>(it->second.size());
}

std::vector<BlockId> DataNode::ListBlocks() const {
  MutexLock l(mu_);
  std::vector<BlockId> ids;
  ids.reserve(blocks_.size());
  for (const auto& [id, data] : blocks_) ids.push_back(id);
  return ids;
}

uint64_t DataNode::used_bytes() const {
  MutexLock l(mu_);
  uint64_t total = 0;
  for (const auto& [id, data] : blocks_) total += data.size();
  return total;
}

}  // namespace logbase::dfs
