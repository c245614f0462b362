#include "perfbench/src/harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>

#include "perfbench/src/oracle.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "src/cluster/mini_cluster.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/plan.h"

namespace perfbench {

namespace {

using logbase::Slice;
using logbase::Status;
using logbase::sim::SimContext;
using logbase::sim::VirtualTime;

constexpr int kNodes = 4;
constexpr const char* kTable = "bench";
constexpr int kTablets = 8;
constexpr uint64_t kLoadBatch = 100;
// Mean stored value size (MakeValue draws 0.5x to 1.5x of it).
constexpr size_t kValueBytes = 1000;
// Keys per Scan and per Query range.
constexpr uint64_t kRangeKeys = 100;
// Setup is repeated and its median reported, so work moved into setup shows
// without one slow boot deciding the figure.
constexpr int kSetups = 3;
// Phase sizes in WorkloadConfig are the arrivals at --seconds 20; other
// values scale them linearly.
constexpr double kReferenceSeconds = 20;
// Phases are separated by idle virtual time on freshly reset devices.
constexpr VirtualTime kPhaseGapUs = 1000000;
// A phase runs as independent segments of at most this many arrivals, each
// starting on idle, freshly reset devices. The simulator's per-device
// idle-gap bookkeeping grows with the length of a phase (see
// sim::Resource), so the wall cost of a phase grows faster than its
// length; segments keep large samples affordable. Within a segment the
// growth still shows, as client.wall_drift.
constexpr size_t kSegmentOps = 8000;
// The server crashed and restarted after the ladder (node 0 hosts the
// master and coordination service, which stay up).
constexpr int kCrashNode = 1;
// A failed op counts as missing every latency limit.
constexpr double kFailedLatencyUs = 1e18;

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// Latency classes reported end to end: Scan and Query share one.
enum LatClass { kRead, kWrite, kTxn, kRange, kNumClasses };
const char* const kClassNames[kNumClasses] = {"read", "write", "txn", "scan"};

LatClass ClassOf(OpKind kind) {
  switch (kind) {
    case OpKind::kRead:
      return kRead;
    case OpKind::kUpdate:
      return kWrite;
    case OpKind::kTxn:
      return kTxn;
    case OpKind::kScan:
    case OpKind::kQuery:
      return kRange;
  }
  return kRead;
}

Mix ClassMix(LatClass c) {
  Mix m;
  switch (c) {
    case kRead:
      m.read = 1;
      break;
    case kWrite:
      m.update = 1;
      break;
    case kTxn:
      m.txn = 1;
      break;
    default:
      m.scan = 1;
      m.query = 1;
      break;
  }
  return m;
}

struct PhaseStats {
  std::string name;
  double rate = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::array<std::vector<double>, kNumClasses> latency_us;
  std::vector<double> all_us;  // arrival order
  double wall_s = 0;
  double drift = 0;
  double disk_busy_max = 0;
  double nic_busy_max = 0;
  LatencySummary all;
  bool backlog_ok = true;
  bool meets_limit = false;
  double achieved_ops_s = 0;
};

// Per-layer accumulators of the traced run.
struct LayerStats {
  std::map<std::string, SpanTotals> spans;           // measured phases
  std::map<std::string, SpanTotals> recovery_spans;  // the restart
  uint64_t point_reads = 0;
  uint64_t point_read_preads = 0;
  uint64_t range_pread_bytes = 0;
  uint64_t range_rows = 0;
  uint64_t queries = 0;
  uint64_t query_scanned = 0;
  uint64_t query_returned = 0;
  uint64_t query_bytes = 0;
  uint64_t query_tablets = 0;
};

// Benchmark-timed wall seconds per client call kind.
struct CallWall {
  double seconds = 0;
  uint64_t calls = 0;
  double us_per_call() const { return Ratio(seconds * 1e6, calls); }
};

struct PassResult {
  bool correct = true;
  std::vector<std::string> log;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Virtual-time end-to-end results (bit-identical per seed).
  std::array<LatencySummary, kNumClasses> latency;
  std::array<std::string, kNumClasses> latency_source;
  double max_rate_ops_s = 0;
  double recovery_s = 0;
  double write_amp = 0;
  double space_amp = 0;

  // Wall-clock results.
  double setup_s = 0;
  double measured_wall_s = 0;
  uint64_t measured_ops = 0;
  double peak_rss_mb = 0;

  // Per-layer inputs.
  LayerStats layers;
  std::array<CallWall, kNumOpKinds> call_wall;
  logbase::obs::MetricsSnapshot measured_metrics;
  uint64_t setup_meta_rpcs = 0;
  logbase::tablet::RecoveryStats recovery;
  uint64_t replication_bytes = 0;
  uint64_t log_append_bytes = 0;
  double nominal_drift = 0;
  double nominal_disk_busy = 0;
  double nominal_nic_busy = 0;
  uint64_t txn_begun = 0;
  uint64_t txn_aborted = 0;

  /// The virtual-time metrics and counts that must repeat exactly.
  std::vector<std::pair<std::string, double>> Fingerprint() const {
    std::vector<std::pair<std::string, double>> f;
    for (int c = 0; c < kNumClasses; c++) {
      f.emplace_back(std::string(kClassNames[c]) + ".n",
                     static_cast<double>(latency[c].n));
      f.emplace_back(std::string(kClassNames[c]) + ".p50", latency[c].p50);
      f.emplace_back(std::string(kClassNames[c]) + ".p99", latency[c].p99);
    }
    f.emplace_back("max_rate_ops_s", max_rate_ops_s);
    f.emplace_back("recovery_s", recovery_s);
    f.emplace_back("write_amp", write_amp);
    f.emplace_back("space_amp", space_amp);
    f.emplace_back("attempted", static_cast<double>(attempted));
    f.emplace_back("failed", static_cast<double>(failed));
    f.emplace_back("redo_records", static_cast<double>(recovery.redo_records));
    return f;
  }
};

// One pass over a workload: setup, rate ladder, probes, crash + recovery,
// oracle re-read.
class Pass {
 public:
  Pass(const WorkloadConfig& config, uint64_t seed, double seconds,
       bool trace)
      : config_(config),
        seed_(seed),
        trace_(trace),
        scale_(seconds / kReferenceSeconds),
        oracle_(config.num_keys) {}

  PassResult Run();
  /// Boots and loads only; wall seconds, or -1 if setup failed.
  double TimeSetup() {
    const double begin = WallSeconds();
    return Setup().ok() ? WallSeconds() - begin : -1;
  }

 private:
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      result_.correct = false;
      result_.log.push_back("CHECK FAILED: " + what);
    }
  }
  Status Setup();
  PhaseSpec Spec(double rate, uint64_t ops, const Mix& mix) const;
  VirtualTime StartSegment();
  PhaseStats RunPhase(const std::string& name, const PhaseSpec& spec,
                      uint64_t tag);
  uint64_t Scaled(uint64_t ops) const {
    return std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(static_cast<double>(ops) * scale_)));
  }
  /// Executes one arrival on its own clock; returns false if it failed.
  bool Execute(const Op& op);
  void Recover();
  void RereadCrashedServerKeys();

  const WorkloadConfig& config_;
  const uint64_t seed_;
  const bool trace_;
  const double scale_;  // --seconds / kReferenceSeconds
  PassResult result_;
  std::unique_ptr<logbase::cluster::MiniCluster> cluster_;
  std::vector<std::unique_ptr<logbase::client::LogBaseClient>> clients_;
  Oracle oracle_;
  VirtualTime frontier_ = 0;  // latest virtual time any op reached
  uint64_t acked_user_bytes_ = 0;
};

PhaseSpec Pass::Spec(double rate, uint64_t ops, const Mix& mix) const {
  PhaseSpec spec;
  spec.rate_ops_s = rate;
  spec.ops = ops;
  spec.mix = mix;
  spec.dist = config_.dist;
  spec.num_keys = config_.num_keys;
  spec.num_clients = kNodes;
  spec.range_keys = kRangeKeys;
  return spec;
}

Status Pass::Setup() {
  clients_.clear();
  cluster_.reset();
  oracle_ = Oracle(config_.num_keys);
  logbase::cluster::MiniClusterOptions options;
  options.num_nodes = kNodes;
  options.server_template.read_buffer_bytes = config_.read_buffer_bytes;
  cluster_ = std::make_unique<logbase::cluster::MiniCluster>(options);
  cluster_->ResetMetrics();
  LOGBASE_RETURN_NOT_OK(cluster_->Start());
  std::vector<std::string> splits;
  for (int i = 1; i < kTablets; i++) {
    splits.push_back(KeyName(config_.num_keys * i / kTablets));
  }
  auto schema =
      cluster_->master()->CreateTable(kTable, {"f0", "pad"}, {{"f0", "pad"}},
                                      splits);
  if (!schema.ok()) return schema.status();
  for (int node = 0; node < kNodes; node++) {
    clients_.push_back(cluster_->NewClient(node));
  }
  SimContext ctx;
  SimContext::Scope scope(&ctx);
  logbase::Random rnd(DeriveSeed(seed_, 7));
  // The first version loads in key order. Later versions overwrite keys in
  // a seeded random order, as updates arrive in use, so the live versions
  // lie scattered across the log from the start of the measured phases
  // instead of in one sequential sweep that the run's updates would slowly
  // scatter.
  std::vector<uint64_t> order(config_.num_keys);
  for (uint64_t key = 0; key < config_.num_keys; key++) order[key] = key;
  for (int version = 0; version < config_.setup_versions; version++) {
    if (version > 0) {
      for (uint64_t i = config_.num_keys - 1; i > 0; i--) {
        std::swap(order[i], order[rnd.Uniform(i + 1)]);
      }
    }
    for (uint64_t first = 0; first < config_.num_keys; first += kLoadBatch) {
      logbase::client::WriteBatch batch;
      std::vector<std::pair<uint64_t, uint64_t>> seeds;
      const uint64_t last = std::min(first + kLoadBatch, config_.num_keys);
      for (uint64_t i = first; i < last; i++) {
        const uint64_t value_seed = rnd.Next();
        batch.Put(0, KeyName(order[i]),
                  MakeValue(value_seed, kValueBytes));
        seeds.emplace_back(order[i], value_seed);
      }
      LOGBASE_RETURN_NOT_OK(clients_[0]->PutBatch(kTable, batch));
      for (size_t i = 0; i < seeds.size(); i++) {
        oracle_.Ack(seeds[i].first, seeds[i].second, batch.ops()[i].value);
      }
    }
  }
  for (int node = 0; node < kNodes; node++) {
    LOGBASE_RETURN_NOT_OK(cluster_->server(node)->Checkpoint());
  }
  frontier_ = ctx.now();
  return Status::OK();
}

// Starts a measured segment (or the recovery) on idle devices: every disk
// and NIC queue is reset and must be free at or before the segment's first
// arrival, so nothing measured fills idle time that earlier work left
// behind or queues behind its tail.
VirtualTime Pass::StartSegment() {
  const VirtualTime start = frontier_ + kPhaseGapUs;
  std::vector<logbase::sim::Resource*> devices;
  for (int i = 0; i < kNodes; i++) {
    devices.push_back(cluster_->dfs()->data_node(i)->disk()->resource());
    devices.push_back(cluster_->network()->nic_tx(i));
    devices.push_back(cluster_->network()->nic_rx(i));
  }
  for (logbase::sim::Resource* device : devices) {
    device->Reset();
    Check(device->free_at() <= start,
          device->name() + " busy past the phase start");
  }
  return start;
}

bool Pass::Execute(const Op& op) {
  logbase::client::LogBaseClient* client = clients_[op.client].get();
  const std::string key = KeyName(op.key);
  switch (op.kind) {
    case OpKind::kRead: {
      auto r = client->Get(kTable, 0, key, logbase::client::ReadOptions{});
      if (!r.ok() && !r.status().IsNotFound()) return false;
      const bool found = r.ok() && r->found();
      oracle_.CheckGet(op.key, found, found ? Slice(r->value()) : Slice());
      if (trace_) result_.layers.point_reads++;
      return true;
    }
    case OpKind::kUpdate: {
      const std::string value = MakeValue(op.value_seed, kValueBytes);
      if (!client->Put(kTable, 0, key, value, {}).ok()) return false;
      oracle_.Ack(op.key, op.value_seed, value);
      acked_user_bytes_ += key.size() + value.size();
      return true;
    }
    case OpKind::kTxn: {
      // Two-key read-modify-write: both reads must see the last acked
      // values, both writes are acked together at commit.
      const std::string key2 = KeyName(op.key2);
      const uint64_t seed2 = DeriveSeed(op.value_seed, 2);
      logbase::client::Txn txn = client->BeginTxn();
      for (uint64_t k : {op.key, op.key2}) {
        auto r = txn.Read(kTable, 0, KeyName(k));
        if (!r.ok() && !r.status().IsNotFound()) return false;
        oracle_.CheckGet(k, r.ok(), r.ok() ? Slice(*r) : Slice());
      }
      const std::string v1 = MakeValue(op.value_seed, kValueBytes);
      const std::string v2 = MakeValue(seed2, kValueBytes);
      if (!txn.Write(kTable, 0, key, v1).ok() ||
          !txn.Write(kTable, 0, key2, v2).ok() || !txn.Commit().ok()) {
        return false;
      }
      oracle_.Ack(op.key, op.value_seed, v1);
      oracle_.Ack(op.key2, seed2, v2);
      acked_user_bytes_ += key.size() + v1.size() + key2.size() + v2.size();
      return true;
    }
    case OpKind::kScan: {
      const uint64_t end = std::min(op.key + kRangeKeys, config_.num_keys);
      auto r = client->Scan(kTable, 0, key, KeyName(end));
      if (!r.ok()) return false;
      oracle_.CheckScan(op.key, end, *r);
      if (trace_) result_.layers.range_rows += r->size();
      return true;
    }
    case OpKind::kQuery: {
      const uint64_t end = std::min(op.key + kRangeKeys, config_.num_keys);
      // f0 is uniform in [0, 100): an equality predicate keeps about 1%.
      const int f0 = static_cast<int>(op.value_seed % 100);
      logbase::query::QueryPlan plan;
      plan.start_key = key;
      plan.end_key = KeyName(end);
      plan.predicate = logbase::query::Predicate::Cmp(
          logbase::query::Predicate::Op::kEq, "f0",
          logbase::query::Value::Int64(f0));
      plan.projection.columns = {"f0"};
      auto r = client->Query(kTable, 0, plan);
      if (!r.ok()) return false;
      oracle_.CheckQuery(op.key, end, f0, r->batches);
      if (trace_) {
        LayerStats& l = result_.layers;
        l.queries++;
        l.query_scanned += r->rows_scanned;
        l.query_returned += r->rows_returned;
        l.query_bytes += r->bytes_shipped;
        l.query_tablets += r->tablets_queried;
        l.range_rows += r->rows_scanned;
      }
      return true;
    }
  }
  return false;
}

PhaseStats Pass::RunPhase(const std::string& name, const PhaseSpec& spec,
                          uint64_t tag) {
  PhaseStats p;
  p.name = name;
  p.rate = spec.rate_ops_s;
  const std::vector<Op> ops = GenerateOps(spec, DeriveSeed(seed_, tag));
  p.ops = ops.size();
  logbase::obs::Counter* pread_bytes =
      logbase::obs::MetricsRegistry::Global().counter("dfs.pread.bytes");
  std::vector<double> wall_per_op;
  wall_per_op.reserve(ops.size());
  std::vector<double> disk_busy_us(kNodes), nic_busy_us(kNodes);
  double span_us = 0;
  std::vector<double> drifts;
  logbase::obs::OpTracer tracer;
  const double wall_begin = WallSeconds();
  for (size_t first = 0; first < ops.size(); first += kSegmentOps) {
    const size_t last = std::min(ops.size(), first + kSegmentOps);
    const VirtualTime start = StartSegment();
    VirtualTime end = start;
    for (size_t i = first; i < last; i++) {
      const Op& op = ops[i];
      const VirtualTime due = start + op.due_us - ops[first].due_us;
      SimContext ctx(due);
      const uint64_t pread_before = pread_bytes->value();
      const double t0 = WallSeconds();
      bool ok;
      {
        SimContext::Scope scope(&ctx);
        logbase::obs::OpTracer::Scope trace_scope(trace_ ? &tracer : nullptr);
        ok = Execute(op);
      }
      const double t1 = WallSeconds();
      wall_per_op.push_back(t1 - t0);
      CallWall& cw = result_.call_wall[static_cast<int>(op.kind)];
      cw.seconds += t1 - t0;
      cw.calls++;
      if (trace_) {
        AccumulateSelfTimes(tracer.spans(), &result_.layers.spans);
        if (op.kind == OpKind::kRead) {
          result_.layers.point_read_preads += tracer.CountOf("dfs.pread");
        } else if (op.kind == OpKind::kScan || op.kind == OpKind::kQuery) {
          result_.layers.range_pread_bytes +=
              pread_bytes->value() - pread_before;
        }
        tracer.Clear();
      }
      const double latency = static_cast<double>(ctx.now() - due);
      end = std::max(end, ctx.now());
      if (ok) {
        p.latency_us[ClassOf(op.kind)].push_back(latency);
        p.all_us.push_back(latency);
      } else {
        p.failed++;
        p.all_us.push_back(kFailedLatencyUs);
      }
    }
    frontier_ = std::max(frontier_, end);
    span_us += static_cast<double>(end - start);
    // Wall cost drift: the segment's last tenth of ops against its first.
    const size_t tenth = (last - first) / 10;
    if (tenth > 0) {
      double head = 0, tail = 0;
      for (size_t i = 0; i < tenth; i++) {
        head += wall_per_op[first + i];
        tail += wall_per_op[last - 1 - i];
      }
      drifts.push_back(Ratio(tail, head));
    }
    // A backlog grows when the segment's late arrivals wait much longer
    // than its early ones.
    const size_t fifth = (last - first) / 5;
    if (fifth > 0) {
      std::vector<double> head(p.all_us.begin() + first,
                               p.all_us.begin() + first + fifth);
      std::vector<double> tail(p.all_us.begin() + last - fifth,
                               p.all_us.begin() + last);
      p.backlog_ok = p.backlog_ok &&
                     Percentile(&tail, 50) <= 2.0 * Percentile(&head, 50);
    }
    // Device busy time of this segment (queues were reset at its start).
    for (int i = 0; i < kNodes; i++) {
      disk_busy_us[i] += static_cast<double>(
          cluster_->dfs()->data_node(i)->disk()->resource()->total_busy_us());
      nic_busy_us[i] += static_cast<double>(
          std::max(cluster_->network()->nic_tx(i)->total_busy_us(),
                   cluster_->network()->nic_rx(i)->total_busy_us()));
    }
  }
  p.wall_s = WallSeconds() - wall_begin;
  p.drift = Percentile(&drifts, 50);
  for (int i = 0; i < kNodes; i++) {
    p.disk_busy_max = std::max(p.disk_busy_max, Ratio(disk_busy_us[i], span_us));
    p.nic_busy_max = std::max(p.nic_busy_max, Ratio(nic_busy_us[i], span_us));
  }
  p.all = perfbench::Summarize(p.all_us);
  p.meets_limit = p.backlog_ok && p.failed == 0 && p.all.p99_supported &&
                  p.all.p99 <= config_.limit_us;
  p.achieved_ops_s = Ratio(static_cast<double>(p.ops) * 1e6, span_us);

  result_.attempted += p.ops;
  result_.failed += p.failed;
  result_.measured_ops += p.ops;
  result_.measured_wall_s += p.wall_s;
  result_.log.push_back(Fmt(
      "phase %-14s offered=%7.0f/s ops=%-6llu achieved=%8.1f/s all.p%g=%9.0fus "
      "(n=%llu) backlog=%s limit=%s failed=%llu wall=%.2fs drift=%.2f "
      "disk_busy=%.3f nic_busy=%.3f",
      p.name.c_str(), p.rate, static_cast<unsigned long long>(p.ops),
      p.achieved_ops_s, p.all.tail_pct, p.all.p99,
      static_cast<unsigned long long>(p.all.n), p.backlog_ok ? "flat" : "GROWING",
      p.meets_limit ? "met" : "missed", static_cast<unsigned long long>(p.failed),
      p.wall_s, p.drift, p.disk_busy_max, p.nic_busy_max));
  return p;
}

void Pass::Recover() {
  const VirtualTime start = StartSegment();
  cluster_->CrashServer(kCrashNode);
  SimContext ctx(start);
  logbase::obs::OpTracer tracer;
  Status s;
  {
    SimContext::Scope scope(&ctx);
    logbase::obs::OpTracer::Scope trace_scope(trace_ ? &tracer : nullptr);
    s = cluster_->RestartServer(kCrashNode, &result_.recovery);
  }
  Check(s.ok(), "restart of server " + std::to_string(kCrashNode) + ": " +
                    s.ToString());
  if (trace_) AccumulateSelfTimes(tracer.spans(), &result_.layers.recovery_spans);
  result_.recovery_s = static_cast<double>(ctx.now() - start) / 1e6;
  frontier_ = std::max(frontier_, ctx.now());
  result_.log.push_back(Fmt(
      "recovery: server %d restarted in %.6f virtual s, redo %llu records / "
      "%llu bytes, checkpoint %s",
      kCrashNode, result_.recovery_s,
      static_cast<unsigned long long>(result_.recovery.redo_records),
      static_cast<unsigned long long>(result_.recovery.redo_bytes),
      result_.recovery.loaded_checkpoint ? "loaded" : "absent"));
}

// Every acked key the crashed server owns must read back its last acked
// value once the server is serving again.
void Pass::RereadCrashedServerKeys() {
  auto assignments = cluster_->master()->AssignmentsSnapshot();
  uint64_t reads = 0, failed = 0;
  const uint64_t mismatches_before = oracle_.mismatches();
  SimContext ctx(frontier_);
  SimContext::Scope scope(&ctx);
  for (uint64_t key = 0; key < config_.num_keys; key++) {
    if (!oracle_.acked(key)) continue;
    const std::string name = KeyName(key);
    bool owned = false;
    for (const auto& [uid, location] : assignments) {
      if (location.server_id == kCrashNode &&
          location.descriptor.table_name == kTable &&
          location.descriptor.Contains(name)) {
        owned = true;
        break;
      }
    }
    if (!owned) continue;
    reads++;
    auto r = clients_[0]->Get(kTable, 0, name, logbase::client::ReadOptions{});
    if (!r.ok() && !r.status().IsNotFound()) {
      failed++;
      continue;
    }
    const bool found = r.ok() && r->found();
    oracle_.CheckGet(key, found, found ? Slice(r->value()) : Slice());
  }
  frontier_ = std::max(frontier_, ctx.now());
  result_.attempted += reads;
  result_.failed += failed;
  Check(reads > 0, "crashed server owned no acked keys");
  Check(oracle_.mismatches() == mismatches_before,
        Fmt("re-read after restart: %llu mismatches",
            static_cast<unsigned long long>(oracle_.mismatches() -
                                            mismatches_before)));
  result_.log.push_back(Fmt("oracle: re-read %llu acked keys of server %d "
                            "after restart, %llu failed",
                            static_cast<unsigned long long>(reads), kCrashNode,
                            static_cast<unsigned long long>(failed)));
}

PassResult Pass::Run() {
  const double setup_begin = WallSeconds();
  const Status setup = Setup();
  result_.setup_s = WallSeconds() - setup_begin;
  if (!setup.ok()) {
    Check(false, "setup: " + setup.ToString());
    return std::move(result_);
  }
  result_.setup_meta_rpcs =
      cluster_->DumpMetrics().CounterValue("dfs.meta.rpcs");
  cluster_->ResetMetrics();

  logbase::obs::MetricsRegistry& registry =
      logbase::obs::MetricsRegistry::Global();
  logbase::obs::Counter* replication = registry.counter("dfs.replication.bytes");
  logbase::obs::Counter* log_bytes = registry.counter("log.append.bytes");
  const uint64_t replication_before = replication->value();
  const uint64_t log_before = log_bytes->value();

  std::vector<PhaseStats> ladder;
  for (size_t r = 0; r < config_.ladder.size(); r++) {
    ladder.push_back(RunPhase(
        Fmt("rung%zu%s", r, r == config_.nominal ? "*" : ""),
        Spec(config_.ladder[r],
             Scaled(r == config_.nominal ? config_.nominal_ops
                                         : config_.ops_per_rung),
             config_.mix),
        100 + r));
  }
  const PhaseStats& nominal = ladder[config_.nominal];
  result_.nominal_drift = nominal.drift;
  result_.nominal_disk_busy = nominal.disk_busy_max;
  result_.nominal_nic_busy = nominal.nic_busy_max;
  for (int c = 0; c < kNumClasses; c++) {
    std::vector<double> samples = nominal.latency_us[c];
    result_.latency_source[c] = "nominal rung";
    const WorkloadConfig::Probe& probe_spec = config_.probes[c];
    if (probe_spec.ops > 0) {
      PhaseStats probe = RunPhase(
          std::string("probe.") + kClassNames[c],
          Spec(probe_spec.rate_ops_s, Scaled(probe_spec.ops),
               ClassMix(LatClass(c))),
          200 + c);
      samples = probe.latency_us[c];
      result_.latency_source[c] = "probe phase";
    }
    result_.latency[c] = perfbench::Summarize(std::move(samples));
  }
  for (const PhaseStats& p : ladder) {
    if (p.meets_limit) result_.max_rate_ops_s = p.achieved_ops_s;
  }
  result_.replication_bytes = replication->value() - replication_before;
  result_.log_append_bytes = log_bytes->value() - log_before;
  result_.write_amp = Ratio(static_cast<double>(result_.replication_bytes),
                            static_cast<double>(acked_user_bytes_));
  result_.measured_metrics = cluster_->DumpMetrics();
  result_.txn_begun = result_.measured_metrics.CounterValue("txn.begun");
  result_.txn_aborted = result_.measured_metrics.CounterValue("txn.aborted");

  Recover();
  RereadCrashedServerKeys();

  uint64_t used = 0;
  for (int i = 0; i < kNodes; i++) {
    used += cluster_->dfs()->data_node(i)->used_bytes();
  }
  result_.space_amp = Ratio(static_cast<double>(used),
                            static_cast<double>(oracle_.live_bytes()));
  result_.peak_rss_mb = PeakRssMb();
  Check(oracle_.mismatches() == 0,
        Fmt("oracle: %llu mismatches, first: ",
            static_cast<unsigned long long>(oracle_.mismatches())) +
            oracle_.first_mismatch());
  result_.log.push_back(Fmt(
      "oracle: %llu checks, %llu mismatches",
      static_cast<unsigned long long>(oracle_.checks()),
      static_cast<unsigned long long>(oracle_.mismatches())));
  for (int c = 0; c < kNumClasses; c++) {
    const LatencySummary& s = result_.latency[c];
    result_.log.push_back(Fmt(
        "latency %-5s n=%-6llu p50=%.0fus p%g=%.0fus (%s)%s", kClassNames[c],
        static_cast<unsigned long long>(s.n), s.p50, s.tail_pct, s.p99,
        result_.latency_source[c].c_str(),
        s.p99_supported ? "" : " -- p99 unsupported, tail percentile named"));
  }
  clients_.clear();
  cluster_.reset();
  return std::move(result_);
}

double MeanSelf(const std::map<std::string, SpanTotals>& spans,
                const std::string& name) {
  auto it = spans.find(name);
  if (it == spans.end()) return 0;
  return Ratio(static_cast<double>(it->second.self_us),
               static_cast<double>(it->second.count));
}

std::vector<Metric> EndToEnd(const PassResult& r) {
  return {
      {"read_p50_us", r.latency[kRead].p50, "us"},
      {"read_p99_us", r.latency[kRead].p99, "us"},
      {"write_p50_us", r.latency[kWrite].p50, "us"},
      {"write_p99_us", r.latency[kWrite].p99, "us"},
      {"txn_p99_us", r.latency[kTxn].p99, "us"},
      {"scan_p50_us", r.latency[kRange].p50, "us"},
      {"scan_p99_us", r.latency[kRange].p99, "us"},
      {"max_rate_ops_s", r.max_rate_ops_s, "ops/s"},
      {"recovery_s", r.recovery_s, "s"},
      {"write_amp", r.write_amp, "ratio"},
      {"space_amp", r.space_amp, "ratio"},
      {"wall_ops_s", Ratio(static_cast<double>(r.measured_ops),
                           r.measured_wall_s),
       "ops/s"},
      {"setup_s", r.setup_s, "s"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

// Per-layer metrics of one pass. The wall-clock ones are replaced by the
// untraced pass's figures in RunWorkload.
std::vector<Metric> PerLayer(const PassResult& r) {
  const LayerStats& l = r.layers;
  const logbase::obs::MetricsSnapshot& m = r.measured_metrics;
  auto wall = [&](std::initializer_list<OpKind> kinds) {
    CallWall sum;
    for (OpKind k : kinds) {
      sum.seconds += r.call_wall[static_cast<int>(k)].seconds;
      sum.calls += r.call_wall[static_cast<int>(k)].calls;
    }
    return sum.us_per_call();
  };
  auto avg = [&](const char* name) {
    const logbase::obs::MetricPoint* p = m.Find(name);
    return p != nullptr ? p->avg : 0.0;
  };
  const double ops = static_cast<double>(r.measured_ops);
  const uint64_t rb_hits = m.CounterValue("tablet.read_buffer.hits");
  const uint64_t rb_misses = m.CounterValue("tablet.read_buffer.misses");
  const logbase::obs::MetricPoint* quorum =
      m.Find("log.append.quorum_wait_us");
  return {
      {"client.get.wall_us", wall({OpKind::kRead}), "us"},
      {"client.put.wall_us", wall({OpKind::kUpdate}), "us"},
      {"client.scan.wall_us", wall({OpKind::kScan, OpKind::kQuery}), "us"},
      {"client.wall_drift", r.nominal_drift, "ratio"},
      {"client.route.miss_ratio",
       Ratio(static_cast<double>(m.CounterValue("client.route.cache_misses")),
             ops),
       "ratio"},
      {"client.retry_ratio",
       Ratio(static_cast<double>(m.CounterValue("fault.retry.attempts")), ops),
       "ratio"},
      {"client.failed_frac",
       Ratio(static_cast<double>(r.failed),
             static_cast<double>(r.attempted)),
       "ratio"},
      {"tablet.get.self_us", MeanSelf(l.spans, "tablet.get"), "us"},
      {"tablet.put.self_us", MeanSelf(l.spans, "tablet.put"), "us"},
      {"tablet.exec_scan.self_us", MeanSelf(l.spans, "tablet.exec_scan"), "us"},
      {"tablet.read_buffer.hit_ratio",
       Ratio(static_cast<double>(rb_hits),
             static_cast<double>(rb_hits + rb_misses)),
       "ratio"},
      {"tablet.recovery.self_us", MeanSelf(l.recovery_spans, "tablet.recovery"),
       "us"},
      {"tablet.recovery.redo_records",
       static_cast<double>(r.recovery.redo_records), "count"},
      {"tablet.recovery.redo_bytes",
       static_cast<double>(r.recovery.redo_bytes), "B"},
      {"log.append.self_us", MeanSelf(l.spans, "log.append"), "us"},
      {"log.append.batch_records", avg("log.append.batch_records"), "count"},
      {"log.append.quorum_wait_us.p99", quorum != nullptr ? quorum->p99 : 0.0,
       "us"},
      {"log.read.self_us", MeanSelf(l.spans, "log.read"), "us"},
      {"index.probe.self_us", MeanSelf(l.spans, "index.probe"), "us"},
      {"index.probe.depth", avg("index.probe.depth"), "count"},
      {"dfs.pread.per_read",
       Ratio(static_cast<double>(l.point_read_preads),
             static_cast<double>(l.point_reads)),
       "count"},
      {"dfs.pread.bytes_per_row",
       Ratio(static_cast<double>(l.range_pread_bytes),
             static_cast<double>(l.range_rows)),
       "B/row"},
      {"dfs.write.self_us", MeanSelf(l.spans, "dfs.write"), "us"},
      {"dfs.replication.bytes_per_log_byte",
       Ratio(static_cast<double>(r.replication_bytes),
             static_cast<double>(r.log_append_bytes)),
       "ratio"},
      {"dfs.meta.rpcs", static_cast<double>(r.setup_meta_rpcs), "count"},
      {"sim.disk.busy_frac.max", r.nominal_disk_busy, "ratio"},
      {"sim.nic.busy_frac.max", r.nominal_nic_busy, "ratio"},
      {"txn.commit.self_us", MeanSelf(l.spans, "txn.commit"), "us"},
      {"txn.lock.wait.self_us", MeanSelf(l.spans, "txn.lock.wait"), "us"},
      {"txn.abort_ratio",
       Ratio(static_cast<double>(r.txn_aborted),
             static_cast<double>(r.txn_begun)),
       "ratio"},
      {"query.scanned_per_returned",
       Ratio(static_cast<double>(l.query_scanned),
             static_cast<double>(l.query_returned)),
       "ratio"},
      {"query.bytes_shipped_per_row",
       Ratio(static_cast<double>(l.query_bytes),
             static_cast<double>(l.query_returned)),
       "B/row"},
      {"query.tablets_per_query",
       Ratio(static_cast<double>(l.query_tablets),
             static_cast<double>(l.queries)),
       "count"},
      {"trace.wall_overhead", 1.0, "ratio"},
  };
}

void LogMetrics(const char* title, const std::vector<Metric>& metrics,
                std::vector<std::string>* log) {
  log->push_back(title);
  for (const Metric& metric : metrics) {
    log->push_back(Fmt("  %-36s %16.6f %s", metric.name.c_str(), metric.value,
                       metric.unit.c_str()));
  }
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void Set(std::vector<Metric>* metrics, const std::string& name, double value) {
  for (Metric& m : *metrics) {
    if (m.name == name) m.value = value;
  }
}

// What a pass reports back from its child process.
struct PassOutput {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double measured_wall_s = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, double>> fingerprint;
  std::vector<std::string> log;
};

// One record per line: a tag letter, then space-separated fields; log text
// runs to the end of its line.
std::string Serialize(const PassResult& r) {
  std::string out = Fmt("C %d %llu %llu %.17g\n", r.correct ? 1 : 0,
                        static_cast<unsigned long long>(r.attempted),
                        static_cast<unsigned long long>(r.failed),
                        r.measured_wall_s);
  for (const Metric& m : EndToEnd(r)) {
    out += Fmt("E %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : PerLayer(r)) {
    out += Fmt("P %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, value] : r.Fingerprint()) {
    out += Fmt("F %s %.17g\n", name.c_str(), value);
  }
  for (const std::string& line : r.log) out += "L " + line + "\n";
  return out;
}

bool Parse(const std::string& text, PassOutput* out) {
  bool saw_header = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() < 2) continue;
    const std::string body = line.substr(2);
    char name[128] = {}, unit[32] = {};
    double value = 0;
    int correct = 0;
    unsigned long long attempted = 0, failed = 0;
    switch (line[0]) {
      case 'C':
        if (std::sscanf(body.c_str(), "%d %llu %llu %lf", &correct, &attempted,
                        &failed, &out->measured_wall_s) != 4) {
          return false;
        }
        out->correct = correct == 1;
        out->attempted = attempted;
        out->failed = failed;
        saw_header = true;
        break;
      case 'E':
      case 'P':
        if (std::sscanf(body.c_str(), "%127s %lf %31s", name, &value, unit) != 3) {
          return false;
        }
        (line[0] == 'E' ? out->end_to_end : out->per_layer)
            .push_back(Metric{name, value, unit});
        break;
      case 'F':
        if (std::sscanf(body.c_str(), "%127s %lf", name, &value) != 2) return false;
        out->fingerprint.emplace_back(name, value);
        break;
      case 'L':
        out->log.push_back(body);
        break;
      default:
        return false;
    }
  }
  return saw_header;
}

// Runs `fn` in a forked child and returns what it wrote. Every pass runs in
// a fresh process: the program iterates some pointer-keyed maps (a
// transaction's commit participants), so its virtual timings depend on heap
// layout, which only a fresh process reproduces for every pass of a run.
// The benchmark is single-threaded until a pass starts, so forking is safe.
bool RunInChild(const std::function<std::string()>& fn, std::string* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string text = fn();
    size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) _exit(3);
      done += static_cast<size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  char buf[65536];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    out->append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool RunPass(const WorkloadConfig& config, uint64_t seed, double seconds,
             bool trace, PassOutput* out) {
  std::string text;
  const bool ran = RunInChild(
      [&] { return Serialize(Pass(config, seed, seconds, trace).Run()); },
      &text);
  return Parse(text, out) && ran;
}

// Boots a cluster and loads the dataset in a fresh process; returns the
// wall seconds it took, or -1 on failure.
double TimeSetupInChild(const WorkloadConfig& config, uint64_t seed) {
  std::string text;
  const bool ran = RunInChild(
      [&] { return Fmt("%.17g", Pass(config, seed, kReferenceSeconds, false).TimeSetup()); },
      &text);
  return ran && !text.empty() ? std::atof(text.c_str()) : -1;
}

}  // namespace

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig>* workloads = [] {
    auto* w = new std::vector<WorkloadConfig>();
    {
      // Fits in cache: the write path (client -> tablet.put -> log append
      // queue -> DFS pipeline -> NICs and disks, plus txn/coord) does
      // nearly all the work while reads hit the read buffer.
      WorkloadConfig c;
      c.name = "write_heavy";
      c.num_keys = 8000;               // ~8.3 MB live
      c.read_buffer_bytes = 4u << 20;  // 16 MB aggregate
      c.mix.update = 0.8;
      c.mix.read = 0.1;
      c.mix.txn = 0.1;
      c.dist = KeyDist::kZipfian;
      c.ladder = {2000, 4000, 8000, 16000};
      c.nominal = 1;
      c.limit_us = 10000;
      c.nominal_ops = 12000;
      c.ops_per_rung = 4000;
      c.probes[kRange] = {2000, 2000};
      w->push_back(c);
    }
    {
      // About 4x the aggregate read buffer, uniform keys: index probes,
      // read-buffer misses and one DFS pread (a disk seek) per read
      // dominate; the 5% updates expose invalidation and read/write disk
      // interference.
      WorkloadConfig c;
      c.name = "read_heavy_cold";
      c.num_keys = 32000;              // ~33 MB live
      c.read_buffer_bytes = 2u << 20;  // 8 MB aggregate
      c.mix.read = 0.95;
      c.mix.update = 0.05;
      c.dist = KeyDist::kUniform;
      c.ladder = {150, 250, 350, 450};
      c.nominal = 2;
      c.limit_us = 250000;
      c.nominal_ops = 64000;
      c.ops_per_rung = 8000;
      c.probes[kTxn] = {30, 3000};
      c.probes[kRange] = {1.5, 3000};
      w->push_back(c);
    }
    {
      // Larger than the read buffer, three versions per key, never
      // compacted: index range iteration, scattered log reads, the query
      // executor and scatter/gather fan-out do the work.
      WorkloadConfig c;
      c.name = "scan_after_updates";
      c.num_keys = 12000;              // ~12.4 MB live, ~37 MB of versions
      c.setup_versions = 3;
      c.read_buffer_bytes = 1u << 20;  // 4 MB aggregate
      c.mix.scan = 0.44;
      c.mix.query = 0.44;
      c.mix.update = 0.12;
      c.dist = KeyDist::kUniform;
      c.ladder = {1.5, 3, 3.75, 6};
      c.nominal = 2;
      c.limit_us = 12000000;
      c.nominal_ops = 32000;
      c.ops_per_rung = 1500;
      c.probes[kRead] = {380, 20000};
      c.probes[kTxn] = {30, 3000};
      w->push_back(c);
    }
    return w;
  }();
  return *workloads;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RunReport RunWorkload(const WorkloadConfig& config, uint64_t seed,
                      double seconds, bool trace) {
  RunReport report;
  PassOutput base;
  if (!RunPass(config, seed, seconds, /*trace=*/false, &base)) {
    report.correct = false;
    report.log = base.log;
    report.log.push_back("CHECK FAILED: untraced pass did not complete");
    return report;
  }
  report.correct = base.correct;
  report.attempted = base.attempted;
  report.failed = base.failed;
  report.log = base.log;
  if (!trace) {
    // Boot time is noisy, so setup_s is the median of several boots: the
    // pass's own plus setup-only boots, each in a fresh process.
    std::vector<double> setups = {Find(base.end_to_end, "setup_s")};
    for (int i = 1; i < kSetups; i++) {
      const double s = TimeSetupInChild(config, seed);
      if (s < 0) {
        report.correct = false;
        report.log.push_back("CHECK FAILED: setup-only boot failed");
      } else {
        setups.push_back(s);
      }
    }
    Set(&base.end_to_end, "setup_s", Percentile(&setups, 50));
    report.metrics = std::move(base.end_to_end);
    LogMetrics("end-to-end metrics:", report.metrics, &report.log);
    return report;
  }
  LogMetrics("end-to-end metrics (untraced pass):", base.end_to_end,
             &report.log);

  PassOutput traced;
  const bool traced_ok = RunPass(config, seed, seconds, /*trace=*/true, &traced);
  report.correct = report.correct && traced_ok && traced.correct;
  for (const std::string& line : traced.log) {
    report.log.push_back("traced " + line);
  }
  // Spans charge no virtual time, so tracing must not move any
  // virtual-time result.
  bool identical = traced_ok && base.fingerprint.size() == traced.fingerprint.size();
  for (size_t i = 0; identical && i < base.fingerprint.size(); i++) {
    if (base.fingerprint[i].second != traced.fingerprint[i].second) {
      identical = false;
      report.log.push_back(Fmt(
          "CHECK FAILED: traced %s=%.17g differs from untraced %.17g",
          base.fingerprint[i].first.c_str(), traced.fingerprint[i].second,
          base.fingerprint[i].second));
    }
  }
  report.correct = report.correct && identical;
  report.log.push_back(identical ? "traced pass: virtual-time metrics "
                                   "bit-identical to the untraced pass"
                                 : "traced pass: virtual-time metrics DIFFER");
  // Wall-clock per-layer figures come from the untraced pass; tracing's own
  // cost shows as the ratio of the two passes' measured wall time.
  report.metrics = std::move(traced.per_layer);
  for (const char* name : {"client.get.wall_us", "client.put.wall_us",
                           "client.scan.wall_us", "client.wall_drift"}) {
    Set(&report.metrics, name, Find(base.per_layer, name));
  }
  Set(&report.metrics, "trace.wall_overhead",
      Ratio(traced.measured_wall_s, base.measured_wall_s));
  LogMetrics("per-layer metrics (traced pass):", report.metrics, &report.log);
  return report;
}

}  // namespace perfbench
