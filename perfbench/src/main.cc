// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable lines (phases, sample counts, checks) go to stdout first;
// the last line is one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exit status is non-zero when any correctness check fails.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/harness.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:",
               argv0);
  for (const perfbench::WorkloadConfig& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  double seed = -1, seconds = 20, trace = 0;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      ok = ParseNumber(value, &seed) && seed >= 0;
    } else if (arg == "--seconds") {
      ok = ParseNumber(value, &seconds) && seconds > 0 && seconds <= 600;
    } else if (arg == "--trace") {
      ok = ParseNumber(value, &trace) && (trace == 0 || trace == 1);
    } else {
      ok = false;
    }
    if (!ok) Usage(argv[0]);
  }
  const perfbench::WorkloadConfig* config = perfbench::FindWorkload(workload);
  if (config == nullptr || seed < 0) Usage(argv[0]);

  perfbench::RunReport report = perfbench::RunWorkload(
      *config, static_cast<uint64_t>(seed), seconds, trace == 1);
  std::printf("workload %s seed %.0f seconds %g trace %.0f\n",
              config->name.c_str(), seed, seconds, trace);
  for (const std::string& line : report.log) std::printf("%s\n", line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); i++) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return report.correct ? 0 : 1;
}
