// The benchmark harness: boots a 4-node MiniCluster (3-way DFS replication,
// default quorum ack and group commit), loads a workload's dataset, then
// drives an open-loop Poisson load through client::LogBaseClient only, at a
// fixed ladder of offered rates. Each arrival runs on its own SimContext
// that starts at its due virtual time, arrivals are issued in due-time
// order on one thread, and latency is measured from the due time.
//
// Two kinds of result come out of a run:
//  - virtual-time metrics (what the cost model says a user waits), which
//    repeat exactly for a given seed;
//  - wall-clock metrics (what the C++ costs to run), which only a real
//    clock shows because the cost model charges fixed CPU constants.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/gen.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  /// Dataset: keys 0..num_keys-1, each written `setup_versions` times during
  /// setup (the last write is the live version).
  uint64_t num_keys = 0;
  int setup_versions = 1;
  /// Read buffer per tablet server; the aggregate is 4x this.
  size_t read_buffer_bytes = 0;
  Mix mix;
  KeyDist dist = KeyDist::kUniform;
  /// Offered rates (ops/s), ascending; `nominal` indexes the rung whose
  /// latencies are the headline percentiles.
  std::vector<double> ladder;
  size_t nominal = 0;
  /// All-ops p99 limit (virtual us) a rung must meet to count for
  /// max_rate_ops_s.
  double limit_us = 0;
  /// Arrivals at the nominal rung and at every other rung, at --seconds 20
  /// (both scale linearly with --seconds, as do probe phases). The nominal rung is sized so each
  /// latency class it reports gets at least 1000 samples (ten beyond p99).
  uint64_t nominal_ops = 0;
  uint64_t ops_per_rung = 0;
  /// Per latency class (read, write, txn, scan): a class the mix lacks is
  /// reported from a probe phase of that class alone, open loop at
  /// `rate_ops_s`, chosen so its bottleneck device is busy enough that the
  /// median op queues (an idle-device latency is a constant of the cost
  /// model, not a measurement). `ops` = 0: the class is reported from the
  /// nominal rung.
  struct Probe {
    double rate_ops_s = 0;
    uint64_t ops = 0;
  };
  std::array<Probe, 4> probes{};
};

/// The benchmark's workloads, in their documented order.
const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(const std::string& name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// --trace 0: the end-to-end metrics. --trace 1: the per-layer metrics.
  std::vector<Metric> metrics;
  /// Human-readable lines (phase table, sample counts, checks), printed
  /// before the result line.
  std::vector<std::string> log;
};

/// Runs one workload. `seconds` scales the number of arrivals per phase.
/// With `trace`, runs the workload twice on fresh clusters — untraced, then
/// with an OpTracer around every client call — checks that the virtual-time
/// end-to-end metrics of both are bit-identical, and reports the per-layer
/// metrics of the traced run.
RunReport RunWorkload(const WorkloadConfig& config, uint64_t seed,
                      double seconds, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
