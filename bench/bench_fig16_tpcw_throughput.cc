// Figure 16 — TPC-W transaction throughput (TPS) at 3/6/12/24 nodes for the
// three mixes: near-linear scaling under browsing/shopping.

#include "bench/tpcw_common.h"

using namespace logbase;
using namespace logbase::bench;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 16", "TPC-W transaction throughput (TPS) per mix");
  BenchResult json("fig16_tpcw_throughput");
  const uint64_t kTxnsPerClient = 1000;
  std::printf("%6s %12s %12s %12s\n", "nodes", "browsing", "shopping",
              "ordering");
  for (int nodes : {3, 6, 12, 24}) {
    double tps[3];
    int i = 0;
    for (auto mix : {workload::TpcwMix::kBrowsing,
                     workload::TpcwMix::kShopping,
                     workload::TpcwMix::kOrdering}) {
      tps[i++] = RunTpcw(nodes, mix, kTxnsPerClient).tps;
    }
    std::printf("%6d %12.0f %12.0f %12.0f\n", nodes, tps[0], tps[1], tps[2]);
    json.AddRow("tps", std::to_string(nodes) + " nodes",
                {{"browsing", tps[0]},
                 {"shopping", tps[1]},
                 {"ordering", tps[2]}});
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "transaction throughput scales (near linearly for browsing/shopping) "
      "as nodes are added: read-only transactions always commit under "
      "MVOCC, and entity-group key design keeps update transactions "
      "single-server (Fig. 16).");
  json.WriteFile();
  return 0;
}
