// Figure 15 — TPC-W transaction latency (ms) at 3/6/12/24 nodes for the
// browsing (5% update), shopping (20%) and ordering (50%) mixes.

#include "bench/tpcw_common.h"

using namespace logbase;
using namespace logbase::bench;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 15", "TPC-W transaction latency (ms) per mix");
  BenchResult json("fig15_tpcw_latency");
  const uint64_t kTxnsPerClient = 1000;
  std::printf("%6s %12s %12s %12s\n", "nodes", "browsing", "shopping",
              "ordering");
  for (int nodes : {3, 6, 12, 24}) {
    double ms[3];
    int i = 0;
    for (auto mix : {workload::TpcwMix::kBrowsing,
                     workload::TpcwMix::kShopping,
                     workload::TpcwMix::kOrdering}) {
      ms[i++] = RunTpcw(nodes, mix, kTxnsPerClient).latency_ms;
    }
    std::printf("%6d %12.3f %12.3f %12.3f\n", nodes, ms[0], ms[1], ms[2]);
    json.AddRow("latency_ms", std::to_string(nodes) + " nodes",
                {{"browsing", ms[0]},
                 {"shopping", ms[1]},
                 {"ordering", ms[2]}});
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "under browsing and shopping mixes LogBase scales with nearly flat "
      "transaction latency — most transactions are read-only and commit "
      "without conflict checks under MVOCC; the ordering mix pays more for "
      "write locks + commit-record persistence (Fig. 15).");
  json.WriteFile();
  return 0;
}
