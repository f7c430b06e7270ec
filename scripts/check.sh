#!/usr/bin/env bash
# Full local verification: plain build + tests, ASan tests, TSan tests on
# the `tsan`-labelled binaries (tests/CMakeLists.txt says which qualify and
# why: TSan cannot see through the CRQ's cmpxchg16b inline asm), the
# injection builds, and UBSan.
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

# UndefinedBehaviorSanitizer with injection on: the whole suite, since
# UBSan (unlike TSan) sees through cmpxchg16b; any report aborts.
cmake -B build-ubsan -G Ninja -DLCRQ_ENABLE_UBSAN=ON -DLCRQ_INJECT=ON -DLCRQ_ENABLE_BENCH=OFF -DLCRQ_ENABLE_EXAMPLES=OFF
cmake --build build-ubsan
ctest --test-dir build-ubsan --output-on-failure

# Hugepage fallback: force the THP-unavailable path (LCRQ_FORCE_NO_THP)
# and re-run the suites that exercise -huge variants and the slab layer,
# proving opt-in hugepages degrade to plain pages with full correctness.
LCRQ_FORCE_NO_THP=1 ctest --test-dir build --output-on-failure -R \
  "test_segment_pool|test_registry"

# Perf smoke: the repo benchmark builds src/ on its own (perfbench/); build
# it, check it still tells a clean run from a planted fault, and run the
# traced layer ladder (raw rings and *NoReclaimQueue types at 4 threads).
if command -v python3 >/dev/null 2>&1; then
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --workload pairs --seed 1 --seconds 1 --trace 1
fi
