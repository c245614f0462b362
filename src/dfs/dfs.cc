#include "src/dfs/dfs.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "src/fault/retry_policy.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace logbase::dfs {

namespace {
constexpr uint64_t kMetadataRpcBytes = 128;
constexpr int kNameNodeHost = 0;

obs::Counter* MetaRpcs() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.meta.rpcs");
  return c;
}

// Single-range reads served by a replica the completion estimate put ahead
// of the first replica in sticky order (see SteerByCompletion).
obs::Counter* SteeredReads() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.pread.steered");
  return c;
}

obs::Counter* ReplicationBytes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.replication.bytes");
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer: replication pipeline with policy-controlled acks.
// ---------------------------------------------------------------------------

class DfsWritableFile : public WritableFile {
 public:
  DfsWritableFile(Dfs* dfs, std::string path, int client_node)
      : dfs_(dfs), path_(std::move(path)), client_node_(client_node) {}

  // Destructors can't propagate errors; an explicit Close() reports them.
  ~DfsWritableFile() override { (void)Close(); }

  // Appends buffer client-side (HDFS streams packets asynchronously and
  // only waits for pipeline acknowledgement at sync points); Sync() pushes
  // the buffer through the replication pipeline and is the durability
  // boundary.
  Status Append(const Slice& data) override {
    buffer_.append(data.data(), data.size());
    size_ += data.size();
    if (buffer_.size() >= kStreamChunk) {
      return FlushBuffer(policy_, nullptr);
    }
    return Status::OK();
  }

  Status Sync() override { return FlushBuffer(policy_, nullptr); }

  // Quorum / pipelined durability: remembers the policy (so streaming
  // flushes triggered by Append() keep using it) and reports when the ack
  // landed on the virtual clock. With max_inflight > 1 the caller's clock
  // only advances to the point its NIC finished streaming the chunk; the
  // replication pipeline's completion is tracked as an outstanding ack.
  Status SyncWith(const SyncPolicy& policy, SyncReceipt* receipt) override {
    policy_ = policy;
    return FlushBuffer(policy, receipt);
  }

  Status WaitForAcks() override {
    sim::SimContext* ctx = sim::SimContext::Current();
    if (ctx != nullptr) {
      for (sim::VirtualTime ack : inflight_acks_) ctx->AdvanceTo(ack);
    }
    inflight_acks_.clear();
    return Status::OK();
  }

  Status Close() override {
    LOGBASE_RETURN_NOT_OK(FlushBuffer(policy_, nullptr));
    LOGBASE_RETURN_NOT_OK(WaitForAcks());
    block_open_ = false;
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  static constexpr size_t kStreamChunk = 1 << 20;

  Status FlushBuffer(const SyncPolicy& policy, SyncReceipt* receipt) {
    Slice remaining(buffer_);
    sim::VirtualTime ack_us = 0;
    sim::VirtualTime full_us = 0;
    while (!remaining.empty()) {
      if (!block_open_ || block_fill_ >= dfs_->options_.block_size) {
        LOGBASE_RETURN_NOT_OK(StartNewBlock());
      }
      uint64_t room = dfs_->options_.block_size - block_fill_;
      size_t chunk_len =
          static_cast<size_t>(std::min<uint64_t>(room, remaining.size()));
      Slice chunk(remaining.data(), chunk_len);
      // A chunk that reached zero replicas stored nothing anywhere, so the
      // retry re-appends at the same offset; partial successes return OK
      // (under-replication is healed by the name node's sweep).
      LOGBASE_RETURN_NOT_OK(retry_.Run("dfs.pipeline_write", [&]() {
        return PipelineWrite(chunk, policy, &ack_us, &full_us);
      }));
      remaining.remove_prefix(chunk_len);
    }
    buffer_.clear();
    if (receipt != nullptr) {
      receipt->ack_us = static_cast<uint64_t>(ack_us);
      receipt->full_us = static_cast<uint64_t>(full_us);
    }
    return Status::OK();
  }
  Status StartNewBlock() {
    // Allocation failures (name-node overload, injected faults, transient
    // partition) are retried with backoff before the write gives up.
    return retry_.Run("dfs.allocate_block", [&]() -> Status {
      if (dfs_->network_ != nullptr &&
          !dfs_->network_->Reachable(client_node_, kNameNodeHost)) {
        return Status::Unavailable("name node unreachable");
      }
      dfs_->MetadataRpc(client_node_);
      auto block = dfs_->name_node_.AllocateBlock(path_, client_node_,
                                                  dfs_->AliveNodes());
      if (!block.ok()) return block.status();
      current_ = *block;
      block_fill_ = 0;
      block_open_ = true;
      return Status::OK();
    });
  }

  /// Streams the chunk through the replica pipeline: client → r0 → r1 → r2.
  /// HDFS pipelines packets, so the hops overlap: each downstream hop
  /// starts one RPC overhead after its upstream, and disks write while the
  /// network streams. Total latency ≈ max(stage time) + per-hop overheads,
  /// while every NIC/disk is still charged its full service time (so
  /// utilization and contention stay honest). Dead replicas are dropped
  /// from the pipeline (HDFS behaviour); at least one must survive.
  ///
  /// The ack point depends on the policy: kAll waits for every surviving
  /// replica (the strict chain ack), kQuorum acks at the majority-th
  /// fastest replica — a disk-stalled straggler still gets the data and is
  /// still charged its full disk/NIC time, it just completes in the
  /// background. With max_inflight > 1 the caller's clock only advances to
  /// the point its own NIC finished streaming; the ack is tracked as
  /// outstanding and collected by WaitForAcks()/a later sync (bounded
  /// in-flight depth).
  Status PipelineWrite(const Slice& chunk, const SyncPolicy& policy,
                       sim::VirtualTime* ack_out,
                       sim::VirtualTime* full_out) {
    obs::Span span("dfs.write");
    sim::SimContext* ctx = sim::SimContext::Current();
    sim::VirtualTime stream_begin = ctx != nullptr ? ctx->now() : 0;
    sim::VirtualTime push_done = stream_begin;
    std::vector<sim::VirtualTime> completions;
    int prev = client_node_;
    int successes = 0;
    for (int replica : current_.replicas) {
      DataNode* dn = dfs_->data_nodes_[replica].get();
      if (!dn->alive()) continue;
      // A replica the upstream hop can't reach drops out of the pipeline
      // exactly like a dead one (HDFS excludes it and continues).
      if (dfs_->network_ != nullptr &&
          !dfs_->network_->Reachable(prev, replica)) {
        continue;
      }
      Status s = dn->StoreBlockData(current_.id, block_fill_, chunk);
      if (!s.ok()) continue;
      if (ctx != nullptr && dfs_->network_ != nullptr) {
        sim::VirtualTime net_done = dfs_->network_->TransferFrom(
            stream_begin, prev, replica, chunk.size());
        sim::VirtualTime disk_done = dn->disk()->AccessFrom(
            stream_begin, current_.id, block_fill_, chunk.size(),
            /*is_write=*/true);
        completions.push_back(std::max(net_done, disk_done));
        if (prev == client_node_) push_done = net_done;
        stream_begin += dfs_->network_->params().rpc_overhead_us;
      } else {
        // No actor: keep the disk's stream state warm, charge nothing.
        dn->disk()->Access(current_.id, block_fill_, chunk.size(),
                           /*is_write=*/true);
      }
      successes++;
      prev = replica;
    }
    if (successes == 0) {
      return Status::IOError("all replicas failed for block append");
    }
    ReplicationBytes()->Add(chunk.size() * successes);
    if (ctx != nullptr && !completions.empty()) {
      sim::VirtualTime full =
          *std::max_element(completions.begin(), completions.end());
      sim::VirtualTime ack = full;
      int quorum = dfs_->options_.replication / 2 + 1;
      if (policy.ack == SyncPolicy::Ack::kQuorum &&
          static_cast<int>(completions.size()) >= quorum) {
        // The quorum-th fastest completion acks the write; if the pipeline
        // already degraded below quorum width, every survivor must ack
        // (the heal sweep restores full width afterwards, invariant I3).
        std::nth_element(completions.begin(),
                         completions.begin() + (quorum - 1),
                         completions.end());
        ack = completions[quorum - 1];
      }
      if (ack_out != nullptr) *ack_out = std::max(*ack_out, ack);
      if (full_out != nullptr) *full_out = std::max(*full_out, full);
      if (policy.max_inflight > 1) {
        ctx->AdvanceTo(push_done);
        inflight_acks_.push_back(ack);
        while (static_cast<int>(inflight_acks_.size()) >=
               policy.max_inflight) {
          ctx->AdvanceTo(inflight_acks_.front());
          inflight_acks_.pop_front();
        }
      } else {
        ctx->AdvanceTo(ack);
      }
    }
    block_fill_ += chunk.size();
    size_ += chunk.size();
    // Publish the new length so concurrent readers can see the tail.
    return dfs_->name_node_.SealBlock(path_, current_.id, block_fill_);
  }

  Dfs* const dfs_;
  const std::string path_;
  const int client_node_;
  fault::RetryPolicy retry_{
      fault::RetryOptions{.seed = 0x0df5u}};  // shared per-writer policy
  std::string buffer_;  // appended but not yet pipelined
  SyncPolicy policy_;   // sticky: the last policy a SyncWith() installed
  std::deque<sim::VirtualTime> inflight_acks_;  // pipelined, not yet waited
  BlockInfo current_;
  bool block_open_ = false;
  uint64_t block_fill_ = 0;
  uint64_t size_ = 0;
};

// ---------------------------------------------------------------------------
// Reader: replica selection with data locality, location caching.
// ---------------------------------------------------------------------------

class DfsRandomAccessFile : public RandomAccessFile {
 public:
  DfsRandomAccessFile(Dfs* dfs, std::string path, int client_node)
      : dfs_(dfs), path_(std::move(path)), client_node_(client_node) {}

  Result<std::string> Read(uint64_t offset, size_t n) const override {
    auto blocks = Locations(offset + n);
    if (!blocks.ok()) return blocks.status();
    std::string out;
    uint64_t block_start = 0;
    for (const BlockInfo& b : **blocks) {
      uint64_t block_end = block_start + b.size;
      if (offset < block_end && offset + n > block_start) {
        uint64_t in_off = offset > block_start ? offset - block_start : 0;
        uint64_t want =
            std::min<uint64_t>(offset + n, block_end) - (block_start + in_off);
        auto piece = ReadFromReplica(b, in_off, want);
        if (!piece.ok()) return piece.status();
        out += *piece;
      }
      block_start = block_end;
      if (block_start >= offset + n) break;
    }
    return out;
  }

  // Plans the ranges as disk runs (PlanDiskRuns, per block) and reads every
  // run at once, each on its own replica: every run runs on a child clock
  // from the call's start and the caller advances to the latest
  // completion. The first run in offset order keeps the sticky order, so a
  // one-run sweep stays on the local disk; every later run goes to the
  // replica that would finish it first (see ReplicaOrder). A range
  // straddling two blocks, or one a replica returned short, is re-read
  // through Read after the fan-out; Read stitches blocks and heals short
  // replicas with the longest prefix.
  Result<std::vector<std::string>> ReadRanges(
      const std::vector<ReadRange>& ranges) const override {
    static obs::HistogramMetric* runs_per_call =
        obs::MetricsRegistry::Global().histogram("dfs.sweep.runs");
    static obs::Counter* overlap_us =
        obs::MetricsRegistry::Global().counter("dfs.sweep.overlap_us");
    std::vector<std::string> out(ranges.size());
    if (ranges.empty()) return out;
    uint64_t need = 0;
    for (const ReadRange& r : ranges) need = std::max(need, r.offset + r.n);
    auto blocks = Locations(need);
    if (!blocks.ok()) return blocks.status();
    // Every data node's disk is built from the same DiskParams, so any one
    // of them states the bridge the serving replica will apply.
    const uint64_t bridge_limit =
        dfs_->data_nodes_.front()->disk()->seek_equivalent_bytes();
    std::vector<Run> runs;
    std::vector<size_t> fallback;
    size_t next = 0;
    uint64_t block_start = 0;
    for (size_t bi = 0; bi < (*blocks)->size() && next < ranges.size();
         bi++) {
      const BlockInfo& b = (**blocks)[bi];
      const uint64_t block_end = block_start + b.size;
      const bool last_block = bi + 1 == (*blocks)->size();
      std::vector<size_t> members;
      std::vector<ReadRange> in_block;
      for (; next < ranges.size() && ranges[next].offset < block_end; next++) {
        const ReadRange& r = ranges[next];
        if (r.offset + r.n > block_end && !last_block) {
          fallback.push_back(next);
          continue;
        }
        members.push_back(next);
        in_block.push_back(ReadRange{
            r.offset - block_start,
            std::min<uint64_t>(r.n, block_end - r.offset)});
      }
      for (const DiskRun& plan : PlanDiskRuns(in_block, bridge_limit)) {
        Run run{&b, plan, {}, {}};
        for (size_t k = plan.first; k < plan.last; k++) {
          run.members.push_back(members[k]);
          run.ranges.push_back(in_block[k]);
        }
        runs.push_back(std::move(run));
      }
      block_start = block_end;
    }
    runs_per_call->Observe(static_cast<double>(runs.size()));
    sim::SimContext* ctx = sim::SimContext::Current();
    const sim::VirtualTime start = ctx != nullptr ? ctx->now() : 0;
    sim::VirtualTime finish = start;
    sim::VirtualTime run_time = 0;
    Status failed;
    for (size_t i = 0; i < runs.size() && failed.ok(); i++) {
      sim::SimContext child(start);
      {
        sim::SimContext::Scope scope(ctx != nullptr ? &child : nullptr);
        failed = ReadRun(runs[i], /*steer=*/i > 0, &out, &fallback);
      }
      finish = std::max(finish, child.now());
      run_time += child.now() - start;
    }
    if (ctx != nullptr) {
      ctx->AdvanceTo(finish);
      overlap_us->Add(run_time - (finish - start));
    }
    LOGBASE_RETURN_NOT_OK(failed);
    // Ranges no block claimed start at or past the end of the file and stay
    // empty, as Read would return them.
    for (size_t i : fallback) {
      auto piece = Read(ranges[i].offset, static_cast<size_t>(ranges[i].n));
      if (!piece.ok()) return piece.status();
      out[i] = std::move(*piece);
    }
    return out;
  }

  uint64_t Size() const override {
    auto size = dfs_->name_node_.FileSize(path_);
    return size.ok() ? *size : 0;
  }

 private:
  using BlockList = std::shared_ptr<const std::vector<BlockInfo>>;

  // The cached block locations, refreshed from the name node when they do
  // not cover `need_bytes` (the file grew since). Readers iterate the
  // returned snapshot, so a concurrent refresh never moves it under them.
  Result<BlockList> Locations(uint64_t need_bytes) const EXCLUDES(mu_) {
    MutexLock l(mu_);
    if (blocks_ != nullptr && !blocks_->empty()) {
      uint64_t cached = 0;
      for (const BlockInfo& b : *blocks_) cached += b.size;
      if (cached >= need_bytes) return blocks_;
    }
    dfs_->MetadataRpc(client_node_);
    auto blocks = dfs_->name_node_.GetBlocks(path_);
    if (!blocks.ok()) return blocks.status();
    blocks_ = std::make_shared<const std::vector<BlockInfo>>(
        std::move(*blocks));
    return blocks_;
  }

  // One replica a read may go to, and when it would finish there.
  struct Candidate {
    int node = 0;
    sim::VirtualTime done = 0;
  };

  // One disk run of a ReadRanges call: its block, its PlanDiskRuns plan,
  // and the block-relative ranges it reads with their indices in the
  // call's output.
  struct Run {
    const BlockInfo* block = nullptr;
    DiskRun plan;
    std::vector<size_t> members;
    std::vector<ReadRange> ranges;
  };

  // The sticky replica order: the local replica first (HDFS short-circuit
  // read), then the remote ones sorted and rotated by the reader's id, so
  // concurrent readers of a hot file spread across replicas while each
  // reader keeps hitting the same disk.
  //
  // Single-range reads re-sort this order by estimated completion
  // (SteerByCompletion). So does every run of a sieved sweep but its first:
  // a sweep whose records sit in two regions more than a seek-equivalent
  // apart (a scan's base rows and its scattered recent updates) reads the
  // second region on an idle replica while the first is read locally
  // (repository benchmark, read_heavy_cold: scan_p50 51.2 -> 39.6 ms over
  // ten seeds, every other metric identical per seed).
  //
  // Why the first run stays local-first: the 2-of-3 write quorum acks at its
  // second-fastest replica, so the third, idle disk of each block is the
  // quorum's slack. Steering every whole sweep by the same estimate took
  // that slack away: scan_after_updates scan_p99 fell 85.1 -> 56.4 ms, but
  // write_p99 rose 0.78 -> 2.46 ms (seed 3), because most of its sweeps are
  // one run. A one-run sweep is therefore one local-first access.
  std::vector<Candidate> ReplicaOrder(const BlockInfo& b) const {
    std::vector<Candidate> order;
    order.reserve(b.replicas.size());
    for (int r : b.replicas) {
      if (r == client_node_) order.push_back(Candidate{r});
    }
    const size_t first_remote = order.size();
    for (int r : b.replicas) {
      if (r != client_node_) order.push_back(Candidate{r});
    }
    auto remote = order.begin() + static_cast<ptrdiff_t>(first_remote);
    std::sort(remote, order.end(), [](const Candidate& x, const Candidate& y) {
      return x.node < y.node;
    });
    if (remote != order.end()) {
      std::rotate(remote, remote + client_node_ % (order.end() - remote),
                  order.end());
    }
    return order;
  }

  // Re-sorts the sticky `order` by the virtual time each replica would
  // finish reading [offset, offset + n) of `b`: its disk's queue plus the
  // access cost (positioning, transfer, any injected stall), then the
  // response leg for the `ship` bytes sent back (loopback when local, RPC
  // overhead plus wire time when remote). A single-range read ships its
  // whole span; a sweep's run ships only its ranges, not the gaps it reads
  // through. The estimates come from the functions that later charge the
  // read (Resource::EstimateCompletion is Acquire's read-only twin), so the
  // chosen replica finishes exactly when estimated unless another actor
  // reserves the disk in between. A replica holding fewer than `n` bytes
  // cannot finish the read and goes last (it can still supply a prefix).
  //
  // Ties keep the sticky order, so an idle cluster still reads locally at
  // the local cost. The estimate prices positioning, so a read continuing a
  // sequential stream (recovery, replica tailing, re-replication) pays no
  // seek on the replica holding the stream and stays there unless that
  // disk's queue outgrows a whole seek elsewhere. No replica is probed:
  // Reachable is asked only of the replica actually tried, because a false
  // answer uses up a per-RPC drop decision.
  void SteerByCompletion(const BlockInfo& b, uint64_t offset, uint64_t n,
                         uint64_t ship, std::vector<Candidate>* order) const {
    sim::SimContext* ctx = sim::SimContext::Current();
    if (ctx == nullptr || order->size() < 2) return;
    for (Candidate& c : *order) {
      DataNode::ReadEstimate disk =
          dfs_->data_nodes_[c.node]->EstimateRead(ctx->now(), b.id, offset, n);
      if (disk.bytes < n) {
        c.done = std::numeric_limits<sim::VirtualTime>::max();
      } else if (dfs_->network_ == nullptr) {
        c.done = disk.done;
      } else {
        c.done = dfs_->network_->EstimateTransfer(disk.done, c.node,
                                                  client_node_, ship);
      }
    }
    // Insertion sort: stable, allocation-free, and a block has only a
    // handful of replicas.
    for (size_t i = 1; i < order->size(); i++) {
      for (size_t j = i; j > 0 && (*order)[j].done < (*order)[j - 1].done;
           j--) {
        std::swap((*order)[j], (*order)[j - 1]);
      }
    }
  }

  // The replica `r` when it is alive and reachable; else null, with the
  // reason in `last`.
  DataNode* Serving(int r, Status* last) const {
    DataNode* dn = dfs_->data_nodes_[r].get();
    if (!dn->alive()) return nullptr;
    if (dfs_->network_ != nullptr &&
        !dfs_->network_->Reachable(client_node_, r)) {
      *last = Status::Unavailable("replica unreachable");
      return nullptr;
    }
    return dn;
  }

  Result<std::string> ReadFromReplica(const BlockInfo& b, uint64_t offset,
                                      uint64_t n) const {
    obs::Counter* steered = SteeredReads();
    std::vector<Candidate> order = ReplicaOrder(b);
    const int sticky_first = order.empty() ? -1 : order.front().node;
    SteerByCompletion(b, offset, n, n, &order);
    Status last = Status::Unavailable("no replicas");
    std::string best;
    bool have_best = false;
    bool ahead_of_sticky = true;  // sticky_first not reached yet
    for (const Candidate& c : order) {
      const int r = c.node;
      if (r == sticky_first) ahead_of_sticky = false;
      DataNode* dn = Serving(r, &last);
      if (dn == nullptr) continue;
      auto data = dn->ReadBlock(b.id, offset, n);
      if (data.ok()) {
        if (dfs_->network_ != nullptr) {
          dfs_->network_->Transfer(r, client_node_, data->size());
        }
        if (data->size() >= n) {
          if (ahead_of_sticky) steered->Add();
          return data;
        }
        // Short read: this replica is missing bytes the name node sealed —
        // it fell out of a quorum-acked pipeline append and has not been
        // healed yet. Its bytes are a clean prefix (appends are
        // contiguous), so keep the longest prefix across replicas.
        if (!have_best || data->size() > best.size()) {
          best = std::move(*data);
          have_best = true;
        }
        continue;
      }
      last = data.status();
    }
    if (have_best) return best;
    return last;
  }

  // Reads `run.ranges` on the first replica that serves them, in sticky
  // order or, with `steer`, in order of estimated completion; only the
  // requested bytes are shipped. Full pieces land in `out` at their
  // `members` index; short ones go to `fallback`.
  Status ReadRun(const Run& run, bool steer, std::vector<std::string>* out,
                 std::vector<size_t>* fallback) const {
    const BlockInfo& b = *run.block;
    std::vector<Candidate> order = ReplicaOrder(b);
    if (steer) {
      SteerByCompletion(b, run.plan.begin, run.plan.end - run.plan.begin,
                        run.plan.requested, &order);
    }
    Status last = Status::Unavailable("no replicas");
    for (const Candidate& c : order) {
      const int r = c.node;
      DataNode* dn = Serving(r, &last);
      if (dn == nullptr) continue;
      auto pieces = dn->ReadBlockRanges(b.id, run.ranges);
      if (!pieces.ok()) {
        last = pieces.status();
        continue;
      }
      uint64_t shipped = 0;
      for (const std::string& piece : *pieces) shipped += piece.size();
      if (dfs_->network_ != nullptr) {
        dfs_->network_->Transfer(r, client_node_, shipped);
      }
      for (size_t k = 0; k < run.members.size(); k++) {
        if ((*pieces)[k].size() >= run.ranges[k].n) {
          (*out)[run.members[k]] = std::move((*pieces)[k]);
        } else {
          fallback->push_back(run.members[k]);
        }
      }
      return Status::OK();
    }
    return last;
  }

  Dfs* const dfs_;
  const std::string path_;
  const int client_node_;
  mutable OrderedMutex mu_{lockrank::kDfsFileLocations, "dfs.file.locations"};
  // Copy-on-refresh: the vector a snapshot points at is never mutated.
  mutable BlockList blocks_ GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Dfs facade.
// ---------------------------------------------------------------------------

namespace {

std::vector<int> MakeRacks(const DfsOptions& options) {
  std::vector<int> racks(options.num_nodes);
  for (int i = 0; i < options.num_nodes; i++) {
    racks[i] = i / std::max(1, options.nodes_per_rack);
  }
  return racks;
}

}  // namespace

Dfs::Dfs(DfsOptions options, sim::NetworkModel* network)
    : options_(options),
      owned_network_(network == nullptr
                         ? std::make_unique<sim::NetworkModel>(options.num_nodes)
                         : nullptr),
      network_(network == nullptr ? owned_network_.get() : network),
      name_node_(MakeRacks(options), options.replication) {
  data_nodes_.reserve(options.num_nodes);
  for (int i = 0; i < options.num_nodes; i++) {
    data_nodes_.push_back(std::make_unique<DataNode>(i, options.disk_params));
  }
}

void Dfs::MetadataRpc(int client_node) const {
  MetaRpcs()->Add();
  if (network_ != nullptr) {
    network_->Transfer(client_node, kNameNodeHost, kMetadataRpcBytes);
  }
}

std::vector<bool> Dfs::AliveNodes() const {
  std::vector<bool> alive(data_nodes_.size());
  for (size_t i = 0; i < data_nodes_.size(); i++) {
    alive[i] = data_nodes_[i]->alive();
  }
  return alive;
}

Result<std::unique_ptr<WritableFile>> Dfs::Create(const std::string& path,
                                                  int client_node) {
  MetadataRpc(client_node);
  LOGBASE_RETURN_NOT_OK(name_node_.CreateFile(path));
  return std::unique_ptr<WritableFile>(
      new DfsWritableFile(this, path, client_node));
}

Result<std::unique_ptr<RandomAccessFile>> Dfs::Open(const std::string& path,
                                                    int client_node) {
  MetadataRpc(client_node);
  if (!name_node_.Exists(path)) return Status::NotFound(path);
  return std::unique_ptr<RandomAccessFile>(
      new DfsRandomAccessFile(this, path, client_node));
}

Status Dfs::Delete(const std::string& path) {
  auto blocks = name_node_.DeleteFile(path);
  if (!blocks.ok()) return blocks.status();
  for (const BlockInfo& b : *blocks) {
    for (int r : b.replicas) {
      // A replica missing its block (dead or already-cleaned node) is fine:
      // the file's metadata is gone either way.
      (void)data_nodes_[r]->DeleteBlock(b.id);
    }
  }
  return Status::OK();
}

Status Dfs::Rename(const std::string& from, const std::string& to) {
  return name_node_.Rename(from, to);
}

bool Dfs::Exists(const std::string& path) const {
  return name_node_.Exists(path);
}

Result<uint64_t> Dfs::FileSize(const std::string& path) const {
  return name_node_.FileSize(path);
}

Result<std::vector<std::string>> Dfs::List(const std::string& prefix) const {
  return name_node_.List(prefix);
}

void Dfs::KillDataNode(int node) { data_nodes_[node]->Kill(); }

void Dfs::RestartDataNode(int node) { data_nodes_[node]->Restart(); }

int Dfs::ExecuteRereplication(
    const std::vector<NameNode::RereplicationTask>& tasks) {
  int copied = 0;
  for (const auto& task : tasks) {
    DataNode* src = data_nodes_[task.source_node].get();
    DataNode* dst = data_nodes_[task.target_node].get();
    auto size = src->BlockSize(task.block);
    if (!size.ok()) continue;
    // A stale target (restarted after missing tail appends) already holds a
    // prefix of the block; copy only the missing tail, contiguously.
    uint64_t dst_have = 0;
    if (dst->HasBlock(task.block)) {
      auto have = dst->BlockSize(task.block);
      if (have.ok()) dst_have = *have;
      if (dst_have >= *size) continue;  // already complete
    }
    auto data = src->ReadBlock(task.block, dst_have, *size - dst_have);
    if (!data.ok()) continue;
    if (network_ != nullptr) {
      network_->Transfer(task.source_node, task.target_node, data->size());
    }
    Status s = dst->WriteBlock(task.block, dst_have, *data);
    if (!s.ok()) continue;
    s = name_node_.AddReplica(task.path, task.block, task.target_node);
    if (!s.ok()) continue;  // file deleted mid-copy
    copied++;
  }
  obs::MetricsRegistry::Global()
      .counter("dfs.replication.recovered_blocks")
      ->Add(copied);
  return copied;
}

Result<int> Dfs::Rereplicate(int dead_node) {
  auto tasks = name_node_.PlanRereplication(dead_node, AliveNodes());
  int copied = ExecuteRereplication(tasks);
  LOGBASE_LOG(kInfo, "re-replicated %d blocks after node %d failure", copied,
              dead_node);
  return copied;
}

Result<int> Dfs::HealUnderReplicated() {
  // Iterate: a sweep can itself be partially blocked (sources unreachable),
  // and each completed copy may enable another; stop at a fixpoint.
  // A replica is intact only if its stored copy covers the block's
  // committed length — a node that restarted after missing quorum-acked
  // tail appends holds a stale prefix and must be caught up.
  auto replica_complete = [this](const BlockInfo& b, int node) {
    auto stored = data_nodes_[node]->BlockSize(b.id);
    return stored.ok() && *stored >= b.size;
  };
  int total = 0;
  for (int round = 0; round < options_.replication; round++) {
    auto tasks = name_node_.PlanUnderReplicated(AliveNodes(), replica_complete);
    if (tasks.empty()) break;
    int copied = ExecuteRereplication(tasks);
    total += copied;
    if (copied == 0) break;
  }
  if (total > 0) {
    LOGBASE_LOG(kInfo, "under-replication sweep copied %d blocks", total);
  }
  return total;
}

// ---------------------------------------------------------------------------
// FileSystem adapter.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WritableFile>> DfsFileSystem::NewWritableFile(
    const std::string& path) {
  // FileSystem::NewWritableFile truncates; DFS files are create-once, so
  // delete any existing file first.
  if (dfs_->Exists(path)) {
    LOGBASE_RETURN_NOT_OK(dfs_->Delete(path));
  }
  return dfs_->Create(path, client_node_);
}

Result<std::unique_ptr<RandomAccessFile>> DfsFileSystem::NewRandomAccessFile(
    const std::string& path) {
  return dfs_->Open(path, client_node_);
}

Status DfsFileSystem::DeleteFile(const std::string& path) {
  return dfs_->Delete(path);
}

Status DfsFileSystem::Rename(const std::string& from, const std::string& to) {
  return dfs_->Rename(from, to);
}

bool DfsFileSystem::Exists(const std::string& path) {
  return dfs_->Exists(path);
}

Result<uint64_t> DfsFileSystem::FileSize(const std::string& path) {
  return dfs_->FileSize(path);
}

Result<std::vector<std::string>> DfsFileSystem::List(
    const std::string& prefix) {
  return dfs_->List(prefix);
}

}  // namespace logbase::dfs
