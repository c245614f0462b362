// Shared benchmark harness: fixtures matching the paper's setups (§4.1) and
// uniform result printing. Macro benchmarks measure *virtual* time on the
// simulated cluster (disk seek/bandwidth + 1 GbE network + 3-way replicated
// DFS), so absolute numbers differ from the paper's 2012 testbed; every
// binary prints the paper's qualitative result next to the measured one.
//
// Scale: figures quoting 1M x 1KB tuples per node run here at
// LOGBASE_BENCH_SCALE (default 0.1 => 100K tuples) to keep in-process memory
// and wall time reasonable; set the env var to 1.0 to run paper-scale.

#ifndef LOGBASE_BENCH_COMMON_H_
#define LOGBASE_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/hbase/hbase_server.h"
#include "src/baselines/lrs/lrs_server.h"
#include "src/cluster/mini_cluster.h"
#include "src/core/kv_engine.h"
#include "src/obs/metrics.h"
#include "src/sim/sim_context.h"
#include "src/workload/driver.h"
#include "src/workload/ycsb.h"

namespace logbase::bench {

inline double Scale() {
  const char* env = std::getenv("LOGBASE_BENCH_SCALE");
  double scale = env != nullptr ? std::atof(env) : 0.1;
  return scale > 0 ? scale : 0.1;
}

inline uint64_t Scaled(uint64_t paper_value) {
  uint64_t v = static_cast<uint64_t>(static_cast<double>(paper_value) *
                                     Scale());
  return v > 0 ? v : 1;
}

/// Buffer/threshold sizes (memtables, LSM buffers) scale with the data so
/// flush/compaction *frequency* matches the paper's 1M x 1KB runs.
inline uint64_t ScaledBytes(uint64_t paper_bytes) {
  uint64_t v = static_cast<uint64_t>(static_cast<double>(paper_bytes) *
                                     Scale());
  return std::max<uint64_t>(v, 64 << 10);
}

/// Output path override for BenchResult::WriteFile, set by `--json <path>`;
/// empty means the default BENCH_<name>.json in the working directory.
inline std::string& BenchJsonPath() {
  static std::string* path = new std::string();
  return *path;
}

/// Parses the flags every bench main shares. Currently:
///   --json <path>   write the machine-readable BenchResult to <path>
///                   instead of BENCH_<name>.json in the working directory
/// Unknown arguments abort with a usage line, so a typo cannot silently run
/// a default configuration.
inline void ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      BenchJsonPath() = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      std::exit(2);
    }
  }
}

inline void PrintHeader(const char* figure, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("scale factor %.3g (LOGBASE_BENCH_SCALE; paper counts scaled "
              "accordingly), virtual-time simulation\n",
              Scale());
  std::printf("==============================================================\n");
}

inline void PrintPaperClaim(const char* claim) {
  std::printf("--------------------------------------------------------------\n");
  std::printf("paper: %s\n", claim);
  std::printf("--------------------------------------------------------------\n");
}

/// Prints the per-component virtual-time breakdown accumulated in `m`
/// (normally the whole run: pass `DumpMetrics()` / a registry snapshot, or a
/// `Delta()` to scope a phase). The four headline components — log append,
/// index probe, DFS read, cache hit rate — always print; other components
/// print when they saw traffic.
inline void PrintComponentBreakdown(
    const obs::MetricsSnapshot& m,
    const char* phase = "whole run, all engines") {
  auto hist_line = [&](const char* label, const char* name) {
    const obs::MetricPoint* p = m.Find(name);
    uint64_t n = p != nullptr ? p->count : 0;
    double total_ms = p != nullptr ? p->sum / 1e3 : 0.0;
    double avg_us = p != nullptr ? p->avg : 0.0;
    std::printf("  %-12s n=%-10llu total=%10.2fms  avg=%8.1fus", label,
                static_cast<unsigned long long>(n), total_ms, avg_us);
  };
  auto rate = [](uint64_t hits, uint64_t misses) {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(total);
  };

  std::printf("-- component breakdown (%s; virtual time) --\n", phase);

  hist_line("log.append", "log.append.us");
  const obs::MetricPoint* batch = m.Find("log.append.batch_records");
  std::printf("  batch_avg=%.1f  bytes=%llu\n",
              batch != nullptr ? batch->avg : 0.0,
              static_cast<unsigned long long>(
                  m.CounterValue("log.append.bytes")));

  // Group-commit health: records per flushed batch, append-queue depth at
  // snapshot time, and how long acked writes waited for their quorum.
  const obs::MetricPoint* batch_size = m.Find("log.append.batch_size");
  const obs::MetricPoint* queue_depth = m.Find("log.append.queue_depth");
  const obs::MetricPoint* quorum = m.Find("log.append.quorum_wait_us");
  std::printf("  %-12s batches=%-8llu size_avg=%.1f  queue_depth=%lld  "
              "quorum_wait avg=%.1fus p99=%.1fus\n",
              "group_commit",
              static_cast<unsigned long long>(
                  batch_size != nullptr ? batch_size->count : 0),
              batch_size != nullptr ? batch_size->avg : 0.0,
              static_cast<long long>(
                  queue_depth != nullptr ? queue_depth->gauge : 0),
              quorum != nullptr ? quorum->avg : 0.0,
              quorum != nullptr ? quorum->p99 : 0.0);

  hist_line("index.probe", "index.probe.us");
  const obs::MetricPoint* depth = m.Find("index.probe.depth");
  std::printf("  depth_avg=%.1f  latch_retries=%llu\n",
              depth != nullptr ? depth->avg : 0.0,
              static_cast<unsigned long long>(
                  m.CounterValue("index.latch.retries")));

  // Sieved range reads: the gap bytes read through (the sieve's overhead)
  // sit next to the swept bytes, and records per sweep (its saving: one
  // positioning per sweep instead of one per record) follow. `steered`
  // counts point reads served off their sticky (local-first) replica
  // because another replica would finish first, over all preads.
  hist_line("dfs.pread", "dfs.pread.us");
  const obs::MetricPoint* preads = m.Find("dfs.pread.us");
  std::printf("  bytes=%llu  bridged=%llu  steered=%llu/%llu\n",
              static_cast<unsigned long long>(
                  m.CounterValue("dfs.pread.bytes")),
              static_cast<unsigned long long>(
                  m.CounterValue("dfs.pread.bridged_bytes")),
              static_cast<unsigned long long>(
                  m.CounterValue("dfs.pread.steered")),
              static_cast<unsigned long long>(
                  preads != nullptr ? preads->count : 0));
  // Disk runs per DFS range read (one access each, fanned out across
  // replicas) and the run time those overlapping runs took off the
  // critical path.
  const obs::MetricPoint* sweep = m.Find("log.read.sweep_records");
  if (sweep != nullptr && sweep->count > 0) {
    const obs::MetricPoint* runs = m.Find("dfs.sweep.runs");
    std::printf("  %-12s sweeps=%-10llu records_avg=%.1f  records_max=%.0f  "
                "runs_avg=%.2f  overlap_us=%llu\n",
                "log.sweep", static_cast<unsigned long long>(sweep->count),
                sweep->avg, sweep->max, runs != nullptr ? runs->avg : 0.0,
                static_cast<unsigned long long>(
                    m.CounterValue("dfs.sweep.overlap_us")));
  }

  uint64_t rb_hits = m.CounterValue("tablet.read_buffer.hits");
  uint64_t rb_misses = m.CounterValue("tablet.read_buffer.misses");
  uint64_t bc_hits = m.CounterValue("sstable.block_cache.hits");
  uint64_t bc_misses = m.CounterValue("sstable.block_cache.misses");
  std::printf("  %-12s read_buffer=%5.1f%% (%llu/%llu)  block_cache=%5.1f%% "
              "(%llu/%llu)\n",
              "cache.hits", rate(rb_hits, rb_misses),
              static_cast<unsigned long long>(rb_hits),
              static_cast<unsigned long long>(rb_hits + rb_misses),
              rate(bc_hits, bc_misses),
              static_cast<unsigned long long>(bc_hits),
              static_cast<unsigned long long>(bc_hits + bc_misses));

  if (m.CounterValue("dfs.write.bytes") > 0) {
    hist_line("dfs.write", "dfs.write.us");
    std::printf("  bytes=%llu  replicated=%llu\n",
                static_cast<unsigned long long>(
                    m.CounterValue("dfs.write.bytes")),
                static_cast<unsigned long long>(
                    m.CounterValue("dfs.replication.bytes")));
  }
  if (const obs::MetricPoint* read = m.Find("log.read.us");
      read != nullptr && read->count > 0) {
    hist_line("log.read", "log.read.us");
    std::printf("\n");
  }
  if (m.CounterValue("txn.begun") > 0) {
    hist_line("txn.commit", "txn.commit.us");
    std::printf("  begun=%llu committed=%llu aborted=%llu "
                "validation_failures=%llu lock_failures=%llu\n",
                static_cast<unsigned long long>(m.CounterValue("txn.begun")),
                static_cast<unsigned long long>(
                    m.CounterValue("txn.committed")),
                static_cast<unsigned long long>(m.CounterValue("txn.aborted")),
                static_cast<unsigned long long>(
                    m.CounterValue("txn.validation_failures")),
                static_cast<unsigned long long>(
                    m.CounterValue("txn.lock_failures")));
  }
  if (const obs::MetricPoint* cp = m.Find("tablet.checkpoint.us");
      cp != nullptr && cp->count > 0) {
    hist_line("checkpoint", "tablet.checkpoint.us");
    std::printf("  count=%llu\n", static_cast<unsigned long long>(
                                      m.CounterValue("tablet.checkpoint.count")));
  }
  if (const obs::MetricPoint* comp = m.Find("tablet.compaction.us");
      comp != nullptr && comp->count > 0) {
    hist_line("compaction", "tablet.compaction.us");
    std::printf("  in=%llu out=%llu\n",
                static_cast<unsigned long long>(
                    m.CounterValue("tablet.compaction.input_records")),
                static_cast<unsigned long long>(
                    m.CounterValue("tablet.compaction.output_records")));
  }
  if (const obs::MetricPoint* rec = m.Find("tablet.recovery.us");
      rec != nullptr && rec->count > 0) {
    hist_line("recovery", "tablet.recovery.us");
    std::printf("  redo_records=%llu redo_bytes=%llu\n",
                static_cast<unsigned long long>(
                    m.CounterValue("tablet.recovery.redo_records")),
                static_cast<unsigned long long>(
                    m.CounterValue("tablet.recovery.redo_bytes")));
  }
  if (m.CounterValue("qos.admitted") + m.CounterValue("qos.queued") +
          m.CounterValue("qos.shed") >
      0) {
    const obs::MetricPoint* qd = m.Find("qos.queue_depth");
    const obs::MetricPoint* tokens = m.Find("qos.tokens_available");
    std::printf("  %-12s admitted=%-10llu queued=%-8llu shed=%-8llu "
                "queue_depth=%lld  tokens=%lld\n",
                "qos",
                static_cast<unsigned long long>(
                    m.CounterValue("qos.admitted")),
                static_cast<unsigned long long>(m.CounterValue("qos.queued")),
                static_cast<unsigned long long>(m.CounterValue("qos.shed")),
                static_cast<long long>(qd != nullptr ? qd->gauge : 0),
                static_cast<long long>(tokens != nullptr ? tokens->gauge : 0));
  }
  if (m.CounterValue("query.scan.rows_scanned") > 0) {
    const obs::MetricPoint* sel = m.Find("query.scan.pushdown_selectivity");
    std::printf("  %-12s scanned=%-10llu returned=%-10llu shipped=%llu bytes"
                "  selectivity avg=%.1f%% p99=%.1f%%\n",
                "query.scan",
                static_cast<unsigned long long>(
                    m.CounterValue("query.scan.rows_scanned")),
                static_cast<unsigned long long>(
                    m.CounterValue("query.scan.rows_returned")),
                static_cast<unsigned long long>(
                    m.CounterValue("query.scan.bytes_shipped")),
                sel != nullptr ? sel->avg : 0.0,
                sel != nullptr ? sel->p99 : 0.0);
  }
}

/// Convenience for bench mains: prints the breakdown of everything the
/// process has recorded so far.
inline void PrintComponentBreakdown() {
  PrintComponentBreakdown(obs::MetricsRegistry::Global().Snapshot());
}

// ---------------------------------------------------------------------------
// Machine-readable results: a bench builds one BenchResult alongside its
// stdout report and calls WriteFile() before exiting, producing
// BENCH_<name>.json in the working directory so drivers and CI can diff
// headline numbers without scraping stdout. Keys keep insertion order;
// numbers print with %.6g.
// ---------------------------------------------------------------------------

class BenchResult {
 public:
  explicit BenchResult(std::string name) : name_(std::move(name)) {
    Set("bench", name_);
    Set("scale", Scale());
  }

  void Set(const std::string& key, double value) {
    scalars_.emplace_back(key, Number(value));
  }
  void Set(const std::string& key, const std::string& value) {
    scalars_.emplace_back(key, Quoted(value));
  }

  /// Appends one labeled row to the `array_key` array (created on first
  /// use): {"label": <label>, <field>: <value>, ...}.
  void AddRow(const std::string& array_key, const std::string& label,
              const std::vector<std::pair<std::string, double>>& fields) {
    std::string row = "{\"label\": " + Quoted(label);
    for (const auto& [key, value] : fields) {
      row += ", " + Quoted(key) + ": " + Number(value);
    }
    row += "}";
    auto it = std::find_if(arrays_.begin(), arrays_.end(),
                           [&](const auto& a) { return a.first == array_key; });
    if (it == arrays_.end()) {
      arrays_.emplace_back(array_key, std::vector<std::string>{row});
    } else {
      it->second.push_back(row);
    }
  }

  /// Writes BENCH_<name>.json (or the --json override); prints the path
  /// (or the failure) to stdout.
  void WriteFile() const {
    const std::string path = BenchJsonPath().empty()
                                 ? "BENCH_" + name_ + ".json"
                                 : BenchJsonPath();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("results: could not write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n");
    bool first = true;
    for (const auto& [key, value] : scalars_) {
      std::fprintf(f, "%s  %s: %s", first ? "" : ",\n", Quoted(key).c_str(),
                   value.c_str());
      first = false;
    }
    for (const auto& [key, rows] : arrays_) {
      std::fprintf(f, "%s  %s: [\n", first ? "" : ",\n", Quoted(key).c_str());
      for (size_t i = 0; i < rows.size(); i++) {
        std::fprintf(f, "    %s%s\n", rows[i].c_str(),
                     i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f, "  ]");
      first = false;
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("results: %s\n", path.c_str());
  }

 private:
  static std::string Number(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
  }
  static std::string Quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> scalars_;
  std::vector<std::pair<std::string, std::vector<std::string>>> arrays_;
};

/// Runs `fn` as one simulated actor and returns the virtual seconds it took.
template <typename Fn>
double TimedRun(Fn&& fn) {
  sim::SimContext ctx;
  {
    sim::SimContext::Scope scope(&ctx);
    fn();
  }
  return static_cast<double>(ctx.now()) / 1e6;
}

/// Clears FCFS queue state between benchmark phases (the system is idle at
/// a phase boundary, so the next phase's clock starts at zero rather than
/// queueing behind the previous phase).
inline void ResetCosts(dfs::Dfs* dfs, sim::NetworkModel* network = nullptr) {
  for (int i = 0; i < dfs->num_nodes(); i++) {
    dfs->data_node(i)->disk()->resource()->Reset();
  }
  if (network == nullptr) network = dfs->network();  // DFS-owned NICs
  if (network != nullptr) {
    for (int i = 0; i < network->num_nodes(); i++) {
      network->nic_tx(i)->Reset();
      network->nic_rx(i)->Reset();
    }
  }
}

// ---------------------------------------------------------------------------
// Micro fixture (paper §4.2): ONE tablet server storing data on a 3-node
// DFS. Each engine gets its own DFS so I/O accounting is isolated.
// ---------------------------------------------------------------------------

struct MicroLogBase {
  std::unique_ptr<dfs::Dfs> dfs;
  coord::CoordinationService coord;
  std::unique_ptr<sstable::BlockCache> lsm_cache;
  std::unique_ptr<tablet::TabletServer> server;
  std::string uid;

  explicit MicroLogBase(size_t read_buffer_bytes = 0,
                        index::IndexKind kind = index::IndexKind::kBlink) {
    dfs::DfsOptions dfs_options;
    dfs_options.num_nodes = 3;
    dfs = std::make_unique<dfs::Dfs>(dfs_options);
    tablet::TabletServerOptions options;
    options.server_id = 0;
    options.index_kind = kind;
    options.read_buffer_bytes = read_buffer_bytes;
    if (kind == index::IndexKind::kLsm) {
      // The paper's LRS uses LevelDB's moderate 4 MB write / 8 MB read
      // buffers; buffer sizes scale with the data like the HBase memtable.
      options.lsm.memtable_bytes = ScaledBytes(4ull << 20);
      options.lsm.base_level_bytes = ScaledBytes(10ull << 20);
      // The 8 MB read buffer is NOT scaled down: in the paper's runs the
      // LevelDB index files additionally sit in the OS page cache (which we
      // do not model), so a cache that covers the scaled index reproduces
      // the effective behaviour.
      lsm_cache = std::make_unique<sstable::BlockCache>(8ull << 20);
      options.lsm.block_cache = lsm_cache.get();
    }
    server = std::make_unique<tablet::TabletServer>(options, dfs.get(),
                                                    &coord);
    if (!server->Start().ok()) std::abort();
    tablet::TabletDescriptor d;
    d.table_id = 1;
    d.table_name = "bench";
    uid = d.uid();
    if (!server->OpenTablet(d).ok()) std::abort();
  }
};

struct MicroHBase {
  std::unique_ptr<dfs::Dfs> dfs;
  coord::CoordinationService coord;
  std::unique_ptr<baselines::hbase::HBaseServer> server;
  std::string uid = "bench";

  explicit MicroHBase(size_t block_cache_bytes = 0) {
    dfs::DfsOptions dfs_options;
    dfs_options.num_nodes = 3;
    dfs = std::make_unique<dfs::Dfs>(dfs_options);
    baselines::hbase::HBaseServerOptions options;
    options.server_id = 0;
    options.memtable_flush_bytes = ScaledBytes(64ull << 20);
    options.block_cache_bytes = block_cache_bytes;
    server = std::make_unique<baselines::hbase::HBaseServer>(options,
                                                             dfs.get(),
                                                             &coord);
    if (!server->OpenTablet(uid).ok()) std::abort();
    if (!server->Start().ok()) std::abort();
  }
};

/// Sequentially loads `n` records through `engine` as one simulated client
/// (resetting phase state first); returns virtual seconds.
inline double SequentialLoad(core::KvEngine* engine, const std::string& uid,
                             const workload::YcsbWorkload& workload,
                             uint64_t n, dfs::Dfs* dfs) {
  ResetCosts(dfs);
  Random rnd(4242);
  return TimedRun([&] {
    for (uint64_t i = 0; i < n; i++) {
      Status s = engine->Put(uid, Slice(workload.KeyAt(i)),
                             Slice(workload.MakeValue(&rnd)));
      if (!s.ok()) std::abort();
    }
  });
}

// ---------------------------------------------------------------------------
// Cluster fixture for the HBase comparison at scale: N machines, one engine
// per machine, hash routing (paper §4.3).
// ---------------------------------------------------------------------------

struct LogBaseCluster {
  std::unique_ptr<sim::NetworkModel> network;
  std::unique_ptr<dfs::Dfs> dfs;
  coord::CoordinationService coord;
  std::vector<std::unique_ptr<sstable::BlockCache>> lsm_caches;
  std::vector<std::unique_ptr<tablet::TabletServer>> servers;
  std::vector<std::unique_ptr<core::TabletServerEngine>> engines;
  workload::EngineCluster cluster;

  explicit LogBaseCluster(int nodes,
                          index::IndexKind kind = index::IndexKind::kBlink,
                          size_t read_buffer_bytes = 8ull << 20,
                          uint64_t data_per_node_bytes = 0) {
    (void)data_per_node_bytes;
    network = std::make_unique<sim::NetworkModel>(nodes);
    dfs::DfsOptions dfs_options;
    dfs_options.num_nodes = nodes;
    dfs = std::make_unique<dfs::Dfs>(dfs_options, network.get());
    for (int i = 0; i < nodes; i++) {
      tablet::TabletServerOptions options;
      options.server_id = i;
      options.index_kind = kind;
      options.read_buffer_bytes = read_buffer_bytes;
      if (kind == index::IndexKind::kLsm) {
        options.lsm.memtable_bytes =
            data_per_node_bytes > 0 ? data_per_node_bytes / 256
                                    : ScaledBytes(4ull << 20);
        options.lsm.base_level_bytes = options.lsm.memtable_bytes * 4;
        lsm_caches.push_back(
            std::make_unique<sstable::BlockCache>(8ull << 20));
        options.lsm.block_cache = lsm_caches.back().get();
      }
      servers.push_back(std::make_unique<tablet::TabletServer>(
          options, dfs.get(), &coord));
      if (!servers.back()->Start().ok()) std::abort();
      tablet::TabletDescriptor d;
      d.table_id = 1;
      d.range_id = i;
      if (!servers.back()->OpenTablet(d).ok()) std::abort();
      engines.push_back(std::make_unique<core::TabletServerEngine>(
          servers.back().get(), kind == index::IndexKind::kBlink ? "LogBase"
                                                                 : "LRS"));
      cluster.engines.push_back(engines.back().get());
    }
    cluster.route = workload::HashRouter(nodes);
    cluster.tablet_uid = [](int node) {
      tablet::TabletDescriptor d;
      d.table_id = 1;
      d.range_id = node;
      return d.uid();
    };
    cluster.network = network.get();
  }
};

struct HBaseCluster {
  std::unique_ptr<sim::NetworkModel> network;
  std::unique_ptr<dfs::Dfs> dfs;
  coord::CoordinationService coord;
  std::vector<std::unique_ptr<baselines::hbase::HBaseServer>> servers;
  std::vector<std::unique_ptr<core::HBaseEngine>> engines;
  workload::EngineCluster cluster;

  /// `data_per_node_bytes` scales the memtable so the run sees the paper's
  /// flush frequency (1 GB data : 64 MB memtable = 16 flushes).
  explicit HBaseCluster(int nodes, size_t block_cache_bytes = 8ull << 20,
                        uint64_t data_per_node_bytes = 0) {
    network = std::make_unique<sim::NetworkModel>(nodes);
    dfs::DfsOptions dfs_options;
    dfs_options.num_nodes = nodes;
    dfs = std::make_unique<dfs::Dfs>(dfs_options, network.get());
    for (int i = 0; i < nodes; i++) {
      baselines::hbase::HBaseServerOptions options;
      options.server_id = i;
      options.block_cache_bytes = block_cache_bytes;
      if (data_per_node_bytes > 0) {
        options.memtable_flush_bytes =
            std::max<uint64_t>(data_per_node_bytes / 16, 64 << 10);
      }
      servers.push_back(std::make_unique<baselines::hbase::HBaseServer>(
          options, dfs.get(), &coord));
      if (!servers.back()->OpenTablet("bench").ok()) std::abort();
      if (!servers.back()->Start().ok()) std::abort();
      engines.push_back(
          std::make_unique<core::HBaseEngine>(servers.back().get()));
      cluster.engines.push_back(engines.back().get());
    }
    cluster.route = workload::HashRouter(nodes);
    cluster.tablet_uid = [](int) { return std::string("bench"); };
    cluster.network = network.get();
  }
};

}  // namespace logbase::bench

#endif  // LOGBASE_BENCH_COMMON_H_
