// A DFS data node: stores replicas of fixed-size blocks and owns one
// simulated disk. Each cluster machine runs one data node and one tablet
// server (the paper's deployment), so they share the machine's node id.

#ifndef LOGBASE_DFS_DATA_NODE_H_
#define LOGBASE_DFS_DATA_NODE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/disk_model.h"
#include "src/util/io.h"
#include "src/util/result.h"
#include "src/util/slice.h"
#include "src/util/status.h"

#include "src/util/ordered_mutex.h"

namespace logbase::dfs {

using BlockId = uint64_t;

/// Thread-safe block store with simulated disk costs.
class DataNode {
 public:
  DataNode(int id, sim::DiskParams disk_params = sim::DiskParams());

  int id() const { return id_; }
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  /// Simulates a machine crash: the node stops serving; its block data
  /// survives (disks outlive processes) and is visible again after Restart().
  void Kill() { alive_.store(false, std::memory_order_release); }
  void Restart() { alive_.store(true, std::memory_order_release); }

  /// Fault injection: the next `count` block reads/writes on this node fail
  /// with IOError (a flaky disk/controller). Each failure consumes one
  /// injected error; 0 clears any that remain.
  void InjectIoErrors(int count) {
    injected_io_errors_.store(count, std::memory_order_relaxed);
  }
  int injected_io_errors() const {
    return injected_io_errors_.load(std::memory_order_relaxed);
  }

  /// Appends `data` at `offset` within the block (creating it on first
  /// write). Charges a disk access. Fails when dead or on non-contiguous
  /// append.
  Status WriteBlock(BlockId block, uint64_t offset, const Slice& data);

  /// Stores the bytes without charging disk costs — the DFS write pipeline
  /// charges the disks itself so the hops overlap (packet streaming).
  Status StoreBlockData(BlockId block, uint64_t offset, const Slice& data);

  /// Reads up to n bytes from the block at `offset`; short reads at the end
  /// of the block are not an error. Charges a disk access unless nothing
  /// was read (the one-range case of ReadBlockRanges).
  Result<std::string> ReadBlock(BlockId block, uint64_t offset,
                                uint64_t n) const;

  /// Sieved read of several ranges of one block (`ranges` sorted by
  /// offset): one result per range, each with ReadBlock's short-at-end
  /// semantics. Consecutive ranges whose gap is below the disk's
  /// seek_equivalent_bytes() share one disk access spanning both (reading
  /// through the gap is cheaper than seeking over it); only the requested
  /// bytes are returned. An injected I/O error fails the whole call.
  Result<std::vector<std::string>> ReadBlockRanges(
      BlockId block, const std::vector<ReadRange>& ranges) const;

  /// What ReadBlock(block, offset, n) issued at `start` would cost, without
  /// charging it or touching the disk's stream table: `done` is when the
  /// disk access would finish, `bytes` how many it would return (short at
  /// the end of the stored block; no bytes means no disk access).
  struct ReadEstimate {
    sim::VirtualTime done = 0;
    uint64_t bytes = 0;
  };
  ReadEstimate EstimateRead(sim::VirtualTime start, BlockId block,
                            uint64_t offset, uint64_t n) const;

  Status DeleteBlock(BlockId block);
  bool HasBlock(BlockId block) const;
  Result<uint64_t> BlockSize(BlockId block) const;
  std::vector<BlockId> ListBlocks() const;

  /// Total stored bytes (all replicas hosted here).
  uint64_t used_bytes() const;

  sim::DiskModel* disk() { return &disk_; }

 private:
  /// Consumes one injected error when any are pending; returns true when
  /// this access should fail.
  bool ConsumeInjectedError() const;

  const int id_;
  std::atomic<bool> alive_{true};
  mutable std::atomic<int> injected_io_errors_{0};
  // Mutable: reads charge disk costs too.
  mutable sim::DiskModel disk_;
  mutable OrderedMutex mu_{lockrank::kDfsDataNode, "dfs.data"};
  std::unordered_map<BlockId, std::string> blocks_ GUARDED_BY(mu_);
};

}  // namespace logbase::dfs

#endif  // LOGBASE_DFS_DATA_NODE_H_
