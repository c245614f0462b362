// Self-tests of the benchmark's own code: the seeded generator, the
// ten-samples-beyond percentile rule, span self time, and the oracle.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "perfbench/src/gen.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"

namespace perfbench {
namespace {

PhaseSpec MixedSpec() {
  PhaseSpec spec;
  spec.rate_ops_s = 2000;
  spec.ops = 500;
  spec.mix.read = 0.5;
  spec.mix.update = 0.3;
  spec.mix.txn = 0.1;
  spec.mix.scan = 0.05;
  spec.mix.query = 0.05;
  spec.dist = KeyDist::kZipfian;
  spec.num_keys = 1000;
  spec.num_clients = 4;
  return spec;
}

bool SameStream(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].due_us != b[i].due_us || a[i].kind != b[i].kind ||
        a[i].client != b[i].client || a[i].key != b[i].key ||
        a[i].key2 != b[i].key2 || a[i].value_seed != b[i].value_seed) {
      return false;
    }
  }
  return true;
}

TEST(GeneratorTest, SameSeedSameStreamOtherSeedOtherStream) {
  const std::vector<Op> a = GenerateOps(MixedSpec(), 42);
  EXPECT_TRUE(SameStream(a, GenerateOps(MixedSpec(), 42)));
  EXPECT_FALSE(SameStream(a, GenerateOps(MixedSpec(), 43)));
  EXPECT_EQ(MakeValue(a[0].value_seed, 1000), MakeValue(a[0].value_seed, 1000));
}

TEST(GeneratorTest, ArrivalsAreOrderedAtTheOfferedRateWithEveryKind) {
  PhaseSpec spec = MixedSpec();
  spec.ops = 20000;
  const std::vector<Op> ops = GenerateOps(spec, 7);
  int kinds[kNumOpKinds] = {};
  for (size_t i = 0; i < ops.size(); i++) {
    if (i > 0) {
      EXPECT_LE(ops[i - 1].due_us, ops[i].due_us);
    }
    EXPECT_LT(ops[i].key, spec.num_keys);
    EXPECT_NE(ops[i].key, ops[i].key2);
    kinds[static_cast<int>(ops[i].kind)]++;
  }
  // 20000 arrivals at 2000/s span about 10 s of virtual time.
  EXPECT_NEAR(static_cast<double>(ops.back().due_us), 10e6, 0.3e6);
  for (int k = 0; k < kNumOpKinds; k++) EXPECT_GT(kinds[k], 0);
  EXPECT_NEAR(kinds[static_cast<int>(OpKind::kRead)] / 20000.0, 0.5, 0.02);
}

TEST(GeneratorTest, KeyNamesSortInIndexOrder) {
  EXPECT_EQ(KeyName(31337), "user00031337");
  EXPECT_LT(KeyName(99), KeyName(100));
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_TRUE(Supports(1000, 99));
  EXPECT_FALSE(Supports(999, 99));
  EXPECT_TRUE(Supports(200, 95));
  EXPECT_FALSE(Supports(199, 95));
  EXPECT_EQ(HighestSupported(10000), 99.0);
  EXPECT_TRUE(Supports(10000, 99.9));  // exact rank 9990: ten beyond
  EXPECT_EQ(HighestSupported(999), 95.0);
  EXPECT_EQ(HighestSupported(19), 0.0);

  std::vector<double> samples;
  for (int i = 1; i <= 1000; i++) samples.push_back(i);
  LatencySummary full = Summarize(samples);
  EXPECT_TRUE(full.p99_supported);
  EXPECT_EQ(full.p99, 990);
  EXPECT_EQ(full.p50, 500);

  samples.pop_back();  // 999 samples: p99 has only 9 beyond it
  LatencySummary short_run = Summarize(samples);
  EXPECT_FALSE(short_run.p99_supported);
  EXPECT_EQ(short_run.tail_pct, 95.0);
  EXPECT_EQ(short_run.p99, 950);
}

logbase::obs::SpanRecord SpanAt(const char* name, int depth, int64_t begin,
                                int64_t end) {
  return logbase::obs::SpanRecord{name, depth, begin, end};
}

TEST(SelfTimeTest, SyntheticSpanTree) {
  // client.get [0,100] -> tablet.get [10,90] -> {index.probe [10,20],
  // dfs.pread [30,80] -> disk [40,60]}; completion order, children first.
  std::vector<logbase::obs::SpanRecord> spans = {
      SpanAt("index.probe", 2, 10, 20), SpanAt("disk", 3, 40, 60),
      SpanAt("dfs.pread", 2, 30, 80),   SpanAt("tablet.get", 1, 10, 90),
      SpanAt("client.get", 0, 0, 100),
  };
  std::map<std::string, SpanTotals> totals;
  AccumulateSelfTimes(spans, &totals);
  EXPECT_EQ(totals["client.get"].self_us, 20);
  EXPECT_EQ(totals["tablet.get"].self_us, 80 - 10 - 50);
  EXPECT_EQ(totals["dfs.pread"].self_us, 30);
  EXPECT_EQ(totals["index.probe"].self_us, 10);
  EXPECT_EQ(totals["disk"].self_us, 20);
  EXPECT_EQ(totals["client.get"].total_us, 100);

  // Overlapping children (a scatter/gather fan-out) are covered once.
  std::vector<logbase::obs::SpanRecord> fanout = {
      SpanAt("tablet.exec_scan", 1, 0, 60),
      SpanAt("tablet.exec_scan", 1, 0, 40),
      SpanAt("client.query", 0, 0, 70),
  };
  AccumulateSelfTimes(fanout, &totals);
  EXPECT_EQ(totals["client.query"].self_us, 10);
  EXPECT_EQ(totals["tablet.exec_scan"].count, 2u);
  EXPECT_EQ(totals["tablet.exec_scan"].self_us, 100);
}

TEST(OracleTest, CatchesInjectedWrongValues) {
  Oracle oracle(10);
  const std::string v3 = MakeValue(3, 100);
  const std::string v4 = MakeValue(4, 100);
  oracle.Ack(3, 3, v3);
  oracle.Ack(4, 4, v4);
  EXPECT_TRUE(oracle.CheckGet(3, true, v3));
  EXPECT_TRUE(oracle.CheckGet(5, false, ""));
  EXPECT_EQ(oracle.mismatches(), 0u);

  EXPECT_FALSE(oracle.CheckGet(3, true, v4));  // wrong value
  EXPECT_EQ(oracle.mismatches(), 1u);
  EXPECT_FALSE(oracle.first_mismatch().empty());
  EXPECT_FALSE(oracle.CheckGet(5, true, v3));  // phantom key
  EXPECT_FALSE(oracle.CheckGet(4, false, ""));  // lost acked write

  std::vector<logbase::tablet::ReadRow> rows = {{KeyName(3), 1, v3},
                                                {KeyName(4), 1, v4}};
  EXPECT_TRUE(oracle.CheckScan(0, 10, rows));
  rows[1].value = v3;  // stale value in a scan
  EXPECT_FALSE(oracle.CheckScan(0, 10, rows));
  rows.pop_back();  // missing row
  EXPECT_FALSE(oracle.CheckScan(0, 10, rows));
  EXPECT_EQ(oracle.mismatches(), 5u);
}

TEST(OracleTest, ChecksQueryRowSetAgainstPredicate) {
  Oracle oracle(100);
  for (uint64_t k = 0; k < 100; k++) {
    oracle.Ack(k, k, MakeValue(k, 16));
  }
  const int want = ValueF0(17);
  logbase::query::ColumnBatch batch;
  logbase::query::BatchColumn f0{"f0", {}, {}};
  for (uint64_t k = 0; k < 100; k++) {
    if (ValueF0(k) != want) continue;
    batch.keys.push_back(KeyName(k));
    batch.timestamps.push_back(1);
    f0.cells.push_back(std::to_string(want));
    f0.present.push_back(1);
  }
  batch.columns.push_back(f0);
  EXPECT_TRUE(oracle.CheckQuery(0, 100, want, {batch}));
  batch.columns[0].cells[0] = std::to_string(want + 1);  // injected wrong cell
  EXPECT_FALSE(oracle.CheckQuery(0, 100, want, {batch}));
  EXPECT_FALSE(oracle.CheckQuery(0, 100, want, {}));  // dropped rows
}

}  // namespace
}  // namespace perfbench
