// Seeded open-loop load generator. Everything a run sends — arrival times,
// op kinds, keys, written values — is a pure function of (phase spec, seed),
// so a seed reproduces the exact op stream and the virtual-time results.

#ifndef PERFBENCH_SRC_GEN_H_
#define PERFBENCH_SRC_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/sim_context.h"

namespace perfbench {

enum class OpKind : uint8_t { kRead, kUpdate, kTxn, kScan, kQuery };
inline constexpr int kNumOpKinds = 5;

enum class KeyDist : uint8_t { kUniform, kZipfian };

/// Shares of each op kind; they need not sum to 1 (they are normalized).
struct Mix {
  double read = 0;
  double update = 0;
  double txn = 0;
  double scan = 0;
  double query = 0;
};

struct PhaseSpec {
  double rate_ops_s = 1000;  // offered load: Poisson arrivals at this rate
  uint64_t ops = 1000;
  Mix mix;
  KeyDist dist = KeyDist::kUniform;
  uint64_t num_keys = 1;
  int num_clients = 1;
  /// Keys per Scan/Query range.
  uint64_t range_keys = 100;
};

struct Op {
  logbase::sim::VirtualTime due_us = 0;  // offset from the phase start
  OpKind kind = OpKind::kRead;
  int client = 0;
  uint64_t key = 0;   // point key, txn first key, or range start
  uint64_t key2 = 0;  // txn second key (!= key)
  uint64_t value_seed = 0;
};

/// The op stream of one phase: `spec.ops` arrivals in due-time order.
std::vector<Op> GenerateOps(const PhaseSpec& spec, uint64_t seed);

/// Mixes a run seed with a phase tag so each phase gets its own stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// Row key of key index `i` ("user00000042"): fixed width, so key order is
/// index order and a range [i, j) is the key range [KeyName(i), KeyName(j)).
std::string KeyName(uint64_t i);

/// The stored value written under `value_seed`: a column-encoded row with an
/// int column `f0` in [0, 100) (queries filter on it) and a pad column of
/// between half and one and a half times `mean_bytes`. Sizes vary so that
/// transfer times do, as they do for real rows; with fixed sizes an op that
/// never queues takes a latency that is a constant of the cost model.
std::string MakeValue(uint64_t value_seed, size_t mean_bytes);
int ValueF0(uint64_t value_seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GEN_H_
