#!/usr/bin/env bash
# Reproduce the paper's evaluation at (or near) its original parameters.
#
# WARNING: sized for a large multi-socket x86 server (the paper used 4x
# Xeon E7-4870 = 80 hardware threads); expect hours of runtime.  On small
# hosts run the bench binaries with their laptop-scale defaults instead.
set -euo pipefail
BUILD=${BUILD:-build}
OUT=${OUT:-paper_scale_results}
mkdir -p "$OUT"

run() {
  local name=$1; shift
  echo "=== $name $* ==="
  "$BUILD/bench/$name" "$@" | tee -a "$OUT/$name.txt"
}

run table1_primitives
run fig1_counter   --increments 10000000 --threads 1,2,4,8,16,32,48,64,80
run fig6a_single_processor --pairs 10000000 --runs 10 --thread-list 1,2,4,6,8,10,12,14,16,18,20
run fig6b_oversubscribed   --pairs 10000000 --runs 10 --thread-list 20,24,32,48,64,80,104,128
run fig7_multiprocessor    --pairs 10000000 --runs 10 --clusters 4 \
                           --thread-list 1,2,4,8,12,16,24,32,40,56,64,80
run fig8_latency_cdf --mode single --threads 20 --pairs 1000000 --sample-every 1
run fig8_latency_cdf --mode multi  --threads 80 --pairs 1000000 --sample-every 1
run fig9_ring_size   --mode single --threads 20 --pairs 1000000 \
                     --orders 3,4,5,6,7,8,9,10,11,12,13,14,15,16,17
run fig9_ring_size   --mode multi  --threads 80 --pairs 1000000 \
                     --orders 3,4,5,6,7,8,9,10,11,12,13,14,15,16,17
run table2_stats --threads 20 --pairs 10000000
run table3_stats --threads 80 --pairs 1000000 --clusters 4
run ablations    --threads 20 --pairs 1000000

# Opt-in batch-amortization sweep (BATCH_SWEEP=1): batched ticket claiming
# across batch sizes and thread counts, with machine-readable output at
# $OUT/BENCH_batch.json for tracking the amortization claim over time.
if [ "${BATCH_SWEEP:-0}" = "1" ]; then
  run micro_batch_ops --queues lcrq,lcrq-cas,ms,fc-queue \
                      --threads 1,2,4,8,16,32,64,80 \
                      --batch 1,2,4,8,16,64 \
                      --items 1000000 \
                      --json "$OUT/BENCH_batch.json"
fi

# The multi-socket hierarchy and multilane results (hardware-gated on a
# single-node host): the -h claim timeouts and the lane front-ends next to
# their plain bases, over the discovered clusters.
run fig7_multiprocessor --clusters 0 --pairs 1000000 --runs 5 \
                        --queues lcrq,lcrq-h0,lcrq-h100,lscq,lscq-h0,lscq-h100,lcrq-ml,lscq-ml \
                        --thread-list 1,2,4,8,16,32,48,64,80
echo "results in $OUT/"
