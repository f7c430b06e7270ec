#!/usr/bin/env bash
# Full local verification: plain build + tests, ASan tests, TSan tests on
# the `tsan`-labelled binaries (tests/CMakeLists.txt says which qualify and
# why: TSan cannot see through the CRQ's cmpxchg16b inline asm).
set -euo pipefail
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

cmake -B build-asan -G Ninja -DLCRQ_ENABLE_ASAN=ON -DLCRQ_ENABLE_BENCH=OFF -DLCRQ_ENABLE_EXAMPLES=OFF
cmake --build build-asan
ctest --test-dir build-asan --output-on-failure

cmake -B build-tsan -G Ninja -DLCRQ_ENABLE_TSAN=ON -DLCRQ_ENABLE_BENCH=OFF -DLCRQ_ENABLE_EXAMPLES=OFF
cmake --build build-tsan
ctest --test-dir build-tsan --output-on-failure -L tsan

# Schedule-injection build (docs/TESTING.md §5): the forced-window, kill,
# and seeded-sweep suites need the instrumented hot paths.
cmake -B build-inject -G Ninja -DLCRQ_INJECT=ON -DLCRQ_ENABLE_BENCH=OFF -DLCRQ_ENABLE_EXAMPLES=OFF
cmake --build build-inject
ctest --test-dir build-inject --output-on-failure -L inject

# Injection under TSan: the injection binaries among the `tsan` set.
cmake -B build-tsan-inject -G Ninja -DLCRQ_INJECT=ON -DLCRQ_ENABLE_TSAN=ON -DLCRQ_ENABLE_BENCH=OFF -DLCRQ_ENABLE_EXAMPLES=OFF
cmake --build build-tsan-inject
ctest --test-dir build-tsan-inject --output-on-failure -L tsan -L inject

# Hugepage fallback: force the THP-unavailable path (LCRQ_FORCE_NO_THP)
# and re-run the suites that exercise -huge variants and the slab layer,
# proving opt-in hugepages degrade to plain pages with full correctness.
LCRQ_FORCE_NO_THP=1 ctest --test-dir build --output-on-failure -R \
  "test_segment_pool|test_registry"

# Perf smoke (EXPERIMENTS.md "Machine-readable pipeline"): generate the
# BENCH_*.json artifacts at CI scale, prove the comparator's fixture suite
# passes, and gate that each artifact self-compares clean.  To gate a perf
# change, stash a baseline copy of the artifacts from the parent commit and
# run bench_compare.py baseline new.  The ring-autotune artifact gets its
# dedicated validator too: it recomputes the recommended ring order from
# the sweep rows and fails on drift between the C++ and Python pick rules.
if command -v python3 >/dev/null 2>&1; then
  mkdir -p bench_artifacts
  ./build/bench/regress --smoke --out-dir bench_artifacts
  ./build/bench/dispatch_server --smoke \
    --json bench_artifacts/BENCH_dispatch_server.json
  python3 scripts/bench_compare.py --self-check
  python3 scripts/ring_autotune.py --self-check
  python3 scripts/ring_autotune.py bench_artifacts/BENCH_ring_autotune.json
  for f in bench_artifacts/BENCH_*.json; do
    python3 scripts/bench_compare.py "$f" "$f"
  done
fi
