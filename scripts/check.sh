#!/usr/bin/env bash
# CI gate: lint, then build and test under the selected presets.
#
#   scripts/check.sh                 # lint + default + asan
#   scripts/check.sh --lint          # lint only (no build needed)
#   scripts/check.sh --asan          # asan preset only
#   scripts/check.sh --tsan          # tsan preset: concurrency-labeled
#                                    # subset under ThreadSanitizer, with
#                                    # the lock-order checker active
#   scripts/check.sh --chaos         # chaos-labeled suite (fault injection
#                                    # + nemesis) under the default AND
#                                    # tsan presets
#   scripts/check.sh --tsa           # clang-tsa preset: full build with
#                                    # -Wthread-safety as errors plus the
#                                    # tsa_negative harness (skips with a
#                                    # notice when clang is not installed)
#   scripts/check.sh --perf          # the repository benchmark's own
#                                    # self-tests (perfbench/run.py
#                                    # --self-test: builds into
#                                    # .bench_build/, runs the unit tests)
#   scripts/check.sh --bench [names] # build the default preset, run the
#                                    # named benches (all bench_* when none
#                                    # given) and aggregate their --json
#                                    # results into repo-root BENCH_*.json
#                                    # via scripts/collect_bench.py
#   scripts/check.sh default tsan    # explicit preset list
#
# The default preset runs the full suite including the `lint` and
# `lint_selftest` ctest entries; sanitizer presets re-run the suite under
# asan+ubsan / tsan (the tsan test preset filters to the "concurrency"
# label).
set -euo pipefail

cd "$(dirname "$0")/.."

run_lint() {
  echo "==== lint ===="
  python3 scripts/lint.py --self-test
  python3 scripts/lint.py
}

presets=()
lint_only=0
chaos=0
tsa=0
perf=0
bench=0
bench_names=()
for arg in "$@"; do
  if [ "${bench}" -eq 1 ]; then
    # Everything after --bench names a bench binary to run.
    bench_names+=("${arg}")
    continue
  fi
  case "${arg}" in
    --lint) lint_only=1 ;;
    --asan) presets+=(asan) ;;
    --tsan) presets+=(tsan) ;;
    --chaos) chaos=1 ;;
    --tsa) tsa=1 ;;
    --perf) perf=1 ;;
    --bench) bench=1 ;;
    *) presets+=("${arg}") ;;
  esac
done

if [ "${lint_only}" -eq 1 ] && [ ${#presets[@]} -eq 0 ] \
    && [ "${chaos}" -eq 0 ] && [ "${tsa}" -eq 0 ] && [ "${perf}" -eq 0 ] \
    && [ "${bench}" -eq 0 ]; then
  run_lint
  exit 0
fi

if [ ${#presets[@]} -eq 0 ] && [ "${chaos}" -eq 0 ] && [ "${tsa}" -eq 0 ] \
    && [ "${perf}" -eq 0 ] && [ "${bench}" -eq 0 ]; then
  presets=(default asan)
fi

run_lint

for preset in "${presets[@]}"; do
  echo "==== preset: ${preset} ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  ctest --preset "${preset}"
  # The balance suite (live migration / split protocol safety), the
  # replica suite (snapshot-serving read replicas, I6 nemesis), the log
  # suite (group commit, quorum appends, quorum-tail recovery), the query
  # suite (scan pushdown three-way differential) and the qos suite
  # (multi-tenant admission control, I7 nemesis) gate the default and tsan
  # trees explicitly by label, mirroring the chaos stage.
  case "${preset}" in
    default)
      echo "==== balance+replica+log+query+qos: ${preset} ===="
      (cd "build" && \
        ctest -L 'balance|replica|log|query|qos' --output-on-failure)
      ;;
    tsan)
      echo "==== balance+replica+log+query+qos: ${preset} ===="
      (cd "build-tsan" && TSAN_OPTIONS=halt_on_error=1 \
        ctest -L 'balance|replica|log|query|qos' --output-on-failure)
      ;;
  esac
done

if [ "${tsa}" -eq 1 ]; then
  # Compile-time thread-safety analysis: the whole tree must build with
  # clang's -Wthread-safety promoted to errors, and the tsa_negative
  # harness ("static" label) must show the seeded violations are rejected.
  # The container ships GCC only, so a missing clang is a skip, not a
  # failure — CI runners with clang get the full stage.
  if command -v clang++ >/dev/null 2>&1; then
    echo "==== preset: clang-tsa ===="
    cmake --preset clang-tsa
    cmake --build --preset clang-tsa -j "$(nproc)"
    ctest --preset clang-tsa
    presets+=(clang-tsa)
  else
    echo "==== clang-tsa: clang++ not on PATH; skipping (GCC compiles the"
    echo "==== annotations away — install clang to run the analysis) ===="
  fi
fi

if [ "${chaos}" -eq 1 ]; then
  # The chaos suite must be clean both plain and under ThreadSanitizer
  # (fault delivery races client threads against the injector). The tsan
  # test preset filters to the "concurrency" label, so the chaos label is
  # driven directly against each build tree.
  for preset in default tsan; do
    echo "==== chaos: ${preset} ===="
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "$(nproc)"
    if [ "${preset}" = "tsan" ]; then
      (cd "build-tsan" && TSAN_OPTIONS=halt_on_error=1 \
        ctest -L chaos --output-on-failure)
    else
      (cd "build" && ctest -L chaos --output-on-failure)
    fi
  done
  presets+=(chaos)
fi

if [ "${perf}" -eq 1 ]; then
  # The repository benchmark's self-tests (seed determinism, percentile
  # rule, span self-time, oracle) — perfbench/ builds them with its own
  # CMakeLists into .bench_build/.
  echo "==== perf: perfbench self-test ===="
  python3 perfbench/run.py --self-test
  presets+=(perf)
fi

if [ "${bench}" -eq 1 ]; then
  # Benchmarks: build the default preset, run the requested benches (all of
  # them when none were named) and aggregate each binary's --json result
  # into repo-root BENCH_*.json plus one BENCH_SUMMARY.json. A bench that
  # exits non-zero or writes no result fails the stage.
  echo "==== bench ===="
  cmake --preset default
  cmake --build --preset default -j "$(nproc)"
  python3 scripts/collect_bench.py --build-dir build \
    ${bench_names[@]+"${bench_names[@]}"}
  presets+=(bench)
fi

echo "==== all stages passed: lint ${presets[*]} ===="
