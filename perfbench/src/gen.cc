#include "perfbench/src/gen.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "src/query/column_batch.h"
#include "src/util/random.h"

namespace perfbench {

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  return Mix64(Mix64(seed) ^ (tag * 0x9E3779B97F4A7C15ULL));
}

std::vector<Op> GenerateOps(const PhaseSpec& spec, uint64_t seed) {
  logbase::Random rnd(DeriveSeed(seed, 1));
  std::unique_ptr<logbase::ScrambledZipfianGenerator> zipf;
  if (spec.dist == KeyDist::kZipfian) {
    zipf = std::make_unique<logbase::ScrambledZipfianGenerator>(spec.num_keys,
                                                                0.99);
  }
  auto pick_key = [&]() {
    return zipf != nullptr ? zipf->Next(&rnd) : rnd.Uniform(spec.num_keys);
  };
  const double shares[kNumOpKinds] = {spec.mix.read, spec.mix.update,
                                      spec.mix.txn, spec.mix.scan,
                                      spec.mix.query};
  double total_share = 0;
  for (double s : shares) total_share += s;

  std::vector<Op> ops;
  ops.reserve(spec.ops);
  double t_us = 0;
  const double mean_gap_us = 1e6 / spec.rate_ops_s;
  for (uint64_t i = 0; i < spec.ops; i++) {
    // Exponential inter-arrival gaps: a Poisson process at the offered rate.
    t_us += -std::log(1.0 - rnd.NextDouble()) * mean_gap_us;
    Op op;
    op.due_us = static_cast<logbase::sim::VirtualTime>(t_us);
    double pick = rnd.NextDouble() * total_share;
    int kind = 0;
    while (kind < kNumOpKinds - 1 && pick >= shares[kind]) {
      pick -= shares[kind];
      kind++;
    }
    op.kind = static_cast<OpKind>(kind);
    op.client = static_cast<int>(rnd.Uniform(spec.num_clients));
    if (op.kind == OpKind::kScan || op.kind == OpKind::kQuery) {
      uint64_t span = std::min(spec.range_keys, spec.num_keys);
      op.key = rnd.Uniform(spec.num_keys - span + 1);
    } else {
      op.key = pick_key();
    }
    op.key2 = pick_key();
    if (op.key2 == op.key) op.key2 = (op.key + 1) % spec.num_keys;
    op.value_seed = rnd.Next();
    ops.push_back(op);
  }
  return ops;
}

std::string KeyName(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%08llu",
                static_cast<unsigned long long>(i));
  return buf;
}

int ValueF0(uint64_t value_seed) {
  return static_cast<int>(Mix64(value_seed) % 100);
}

std::string MakeValue(uint64_t value_seed, size_t mean_bytes) {
  const size_t bytes =
      mean_bytes / 2 + Mix64(value_seed ^ 0x5bd1e995) % (mean_bytes + 1);
  std::string pad;
  pad.reserve(bytes);
  uint64_t x = value_seed;
  while (pad.size() + 8 <= bytes) {
    x = Mix64(x);
    pad.append(reinterpret_cast<const char*>(&x), 8);
  }
  std::map<std::string, std::string> columns;
  columns["f0"] = std::to_string(ValueF0(value_seed));
  columns["pad"] = std::move(pad);
  return logbase::query::EncodeColumnMap(columns);
}

}  // namespace perfbench
