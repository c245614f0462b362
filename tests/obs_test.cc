// Tests for the observability layer: the process-global metrics registry
// (lock-striped counters/gauges/histograms), span-based op tracing on the
// virtual clock, and the end-to-end wiring — a MiniCluster round-trip must
// decompose into the per-component costs the simulator charged.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/mini_cluster.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/sim_context.h"

namespace logbase::obs {
namespace {

TEST(MetricsRegistryTest, HandlesAreSharedByName) {
  MetricsRegistry registry;
  Counter* a = registry.counter("test.a");
  Counter* b = registry.counter("test.a");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.counter("test.b"));
  a->Add(3);
  EXPECT_EQ(b->value(), 3u);

  Gauge* g = registry.gauge("test.g");
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(registry.gauge("test.g")->value(), 5);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAndLookups) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&registry, t] {
      // Lookups race with updates across every shard; per-thread counters
      // race on creation, the shared ones on increment.
      Counter* shared = registry.counter("conc.shared");
      Counter* mine = registry.counter("conc.t" + std::to_string(t));
      HistogramMetric* h = registry.histogram("conc.latency.us");
      for (int i = 0; i < kOpsPerThread; i++) {
        shared->Add();
        mine->Add();
        if (i % 100 == 0) h->Observe(static_cast<double>(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("conc.shared"),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  for (int t = 0; t < kThreads; t++) {
    EXPECT_EQ(snap.CounterValue("conc.t" + std::to_string(t)),
              static_cast<uint64_t>(kOpsPerThread));
  }
  const MetricPoint* h = snap.Find("conc.latency.us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<uint64_t>(kThreads) * (kOpsPerThread / 100));
}

TEST(MetricsRegistryTest, HistogramSnapshotsMerge) {
  MetricsRegistry registry;
  HistogramMetric* a = registry.histogram("merge.a.us");
  HistogramMetric* b = registry.histogram("merge.b.us");
  for (int i = 1; i <= 100; i++) a->Observe(i);
  for (int i = 101; i <= 200; i++) b->Observe(i);

  Histogram merged = a->Snapshot();
  merged.Merge(b->Snapshot());
  EXPECT_EQ(merged.num(), 200u);
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 200.0);
  EXPECT_DOUBLE_EQ(merged.Average(), 100.5);
  // The merge must not disturb the sources.
  EXPECT_EQ(a->Snapshot().num(), 100u);
  EXPECT_EQ(b->Snapshot().num(), 100u);
}

TEST(MetricsRegistryTest, SnapshotDeltaScopesAPhase) {
  MetricsRegistry registry;
  registry.counter("phase.ops")->Add(10);
  registry.histogram("phase.us")->Observe(50);
  MetricsSnapshot before = registry.Snapshot();
  registry.counter("phase.ops")->Add(5);
  registry.histogram("phase.us")->Observe(150);
  MetricsSnapshot delta = registry.Snapshot().Delta(before);

  EXPECT_EQ(delta.CounterValue("phase.ops"), 5u);
  const MetricPoint* h = delta.Find("phase.us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->sum, 150.0);
}

TEST(MetricsRegistryTest, ToStringAndJsonNameEveryMetric) {
  MetricsRegistry registry;
  registry.counter("fmt.count")->Add(2);
  registry.gauge("fmt.level")->Set(-4);
  registry.histogram("fmt.us")->Observe(9);
  MetricsSnapshot snap = registry.Snapshot();
  std::string text = snap.ToString();
  std::string json = snap.ToJson();
  for (const char* name : {"fmt.count", "fmt.level", "fmt.us"}) {
    EXPECT_NE(text.find(name), std::string::npos) << text;
    EXPECT_NE(json.find(name), std::string::npos) << json;
  }
}

TEST(TraceTest, SpanNestingUnderSimContext) {
  MetricsRegistry::Global().Reset();
  sim::SimContext ctx;
  OpTracer tracer;
  sim::SimContext::Scope sim_scope(&ctx);
  OpTracer::Scope trace_scope(&tracer);
  {
    Span outer("obs_test.outer");
    ctx.Advance(10);
    {
      Span inner("obs_test.inner");
      EXPECT_EQ(tracer.open_depth(), 2);
      ctx.Advance(30);
    }
    ctx.Advance(5);
  }
  EXPECT_EQ(tracer.open_depth(), 0);

  // Children close before parents; depth reflects nesting.
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].name, "obs_test.inner");
  EXPECT_EQ(tracer.spans()[0].depth, 1);
  EXPECT_EQ(tracer.spans()[1].name, "obs_test.outer");
  EXPECT_EQ(tracer.spans()[1].depth, 0);

  // The outer span covers the inner one plus its own work.
  EXPECT_EQ(tracer.TotalUs("obs_test.inner"), 30);
  EXPECT_EQ(tracer.TotalUs("obs_test.outer"), 45);
  EXPECT_EQ(tracer.CountOf("obs_test.inner"), 1);

  // Every span also lands in the global `<name>.us` histogram.
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_DOUBLE_EQ(snap.HistogramSum("obs_test.outer.us"), 45.0);
  EXPECT_DOUBLE_EQ(snap.HistogramSum("obs_test.inner.us"), 30.0);
}

TEST(TraceTest, SpansAreSilentWithoutSimContext) {
  MetricsRegistry::Global().Reset();
  // Without an ambient clock a duration is meaningless: nothing must reach
  // the registry (unit tests and real-time code stay unpolluted).
  { Span span("obs_test.unclocked"); }
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().Find("obs_test.unclocked.us"),
            nullptr);
}

// One client round-trip through a MiniCluster must report a breakdown: every
// major component shows up non-zero, and the op trace of a single Get
// contains a non-empty dfs.pread span (the read reached a data node).
TEST(ObsEndToEndTest, MiniClusterRoundTripReportsComponentBreakdown) {
  cluster::MiniClusterOptions options;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()
                  ->CreateTable("t", {"c"}, {{"c"}}, {"key3", "key6"})
                  .ok());
  auto client = cluster.NewClient(0);
  cluster.ResetMetrics();  // scope the snapshot to the workload

  sim::SimContext ctx;
  sim::SimContext::Scope sim_scope(&ctx);
  for (int i = 0; i < 9; i++) {
    std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(client->Put("t", 0, key, "value" + std::to_string(i), {}).ok());
  }
  client::Txn txn = client->BeginTxn();
  ASSERT_TRUE(txn.Write("t", 0, "key1", "txn-value").ok());
  ASSERT_TRUE(txn.Commit().ok());

  OpTracer tracer;
  {
    OpTracer::Scope trace_scope(&tracer);
    auto value = client->Get("t", 0, "key5", client::ReadOptions{});
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value->value(), "value5");
  }
  // The traced Get decomposes: client.get wraps an index probe and a log
  // read, and the log read paid a real DFS pread.
  EXPECT_EQ(tracer.CountOf("client.get"), 1);
  EXPECT_GE(tracer.CountOf("index.probe"), 1);
  ASSERT_GE(tracer.CountOf("dfs.pread"), 1);
  EXPECT_GT(tracer.TotalUs("dfs.pread"), 0);
  EXPECT_GE(tracer.TotalUs("client.get"), tracer.TotalUs("dfs.pread"));

  obs::MetricsSnapshot snap = cluster.DumpMetrics();
  EXPECT_GT(snap.CounterValue("log.append.bytes"), 0u);
  EXPECT_GT(snap.HistogramSum("log.append.us"), 0.0);
  EXPECT_GT(snap.HistogramSum("index.probe.us"), 0.0);
  EXPECT_GT(snap.HistogramSum("dfs.pread.us"), 0.0);
  EXPECT_GT(snap.CounterValue("dfs.pread.bytes"), 0u);
  // Reads steered off their sticky replica are reported; a serial client
  // leaves every disk idle by the time it reads, so none are.
  ASSERT_NE(snap.Find("dfs.pread.steered"), nullptr);
  EXPECT_EQ(snap.CounterValue("dfs.pread.steered"), 0u);
  EXPECT_EQ(snap.CounterValue("txn.committed"), 1u);

  // The breakdown spans the whole stack: at least 6 distinct components
  // (client, dfs, index, log, tablet, txn) reported non-zero traffic.
  std::set<std::string> components;
  for (const auto& [name, point] : snap.points) {
    bool nonzero = point.kind == MetricPoint::Kind::kGauge
                       ? point.gauge != 0
                       : point.count > 0;
    if (nonzero) components.insert(name.substr(0, name.find('.')));
  }
  EXPECT_GE(components.size(), 6u) << [&] {
    std::string got;
    for (const auto& c : components) got += c + " ";
    return got;
  }();
}

}  // namespace
}  // namespace logbase::obs
