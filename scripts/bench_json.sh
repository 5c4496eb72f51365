#!/usr/bin/env sh
# Machine-readable benchmark snapshot: runs aisprof over every shipped
# example plus the google-benchmark compile-time suite and aggregates the
# results (name / cycles / compile-ms) into one JSON file.
#
#   sh scripts/bench_json.sh [BUILD_DIR] [OUT_FILE]
#
# The committed BENCH_PR10.json at the repo root is this script's output;
# regenerate it after scheduler changes so the numbers stay honest.
# BENCH_PR9.json is the frozen previous-PR baseline that CI's perf-smoke
# job diffs fresh numbers against (bench_json.py --compare); the baseline
# rolls forward one PR at a time (see docs/PERFORMANCE.md).
set -eu

BUILD=${1:-build}
OUT=${2:-BENCH_PR10.json}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

EXAMPLES=$(dirname "$0")/../examples

# Per-example aisprof reports; the mode follows the example's shape.
"$BUILD/tools/aisprof" --in "$EXAMPLES/fig3_loop.s" --mode loop \
    --repeat 50 --json "$TMP/fig3_loop.json" > /dev/null
"$BUILD/tools/aisprof" --in "$EXAMPLES/two_block_trace.s" --mode trace \
    --repeat 50 --json "$TMP/two_block_trace.json" > /dev/null
"$BUILD/tools/aisprof" --in "$EXAMPLES/memory_alias.s" --mode trace \
    --repeat 50 --json "$TMP/memory_alias.json" > /dev/null
"$BUILD/tools/aisprof" --in "$EXAMPLES/diamond_cfg.s" --mode cfg \
    --repeat 50 --json "$TMP/diamond_cfg.json" > /dev/null

# Scheduler-runtime scaling (google-benchmark's own JSON writer).
# 0.2s per benchmark: the sub-50us microbenchmarks flap past the
# perf-smoke 1.15x gate at shorter measurement times.
"$BUILD/bench/bench_compile_time" --benchmark_format=json \
    --benchmark_min_time=0.2 > "$TMP/compile_time.json" 2> /dev/null

# Static-analysis ride-along cost; bench_json.py asserts the gating rules
# stay under 5% of corpus compile time.
"$BUILD/bench/bench_analysis" --repeat 80 \
    --json "$TMP/analysis.json" > /dev/null

# Telemetry cost; bench_json.py asserts metrics-enabled compiles stay
# under 3% of the runtime-disabled corpus aggregate.  120 repeats: the
# few-percent delta is jitter-dominated at shorter measurement times and
# flaps past the 3% gate.
"$BUILD/bench/bench_obs" --repeat 120 \
    --json "$TMP/obs.json" > /dev/null

# Daemon soak: 1e5 warm requests through the socket protocol; the bench
# gates itself (the warm mean latency, histogram sum / count, must beat the
# cold mean by >= 3x, soak RSS growth must stay flat, TCP throughput within
# 15% of unix, QoS-contended interactive p99 <= 3x uncontended with FIFO
# measurably worse) and exits nonzero on violation (docs/SERVER.md).
"$BUILD/bench/bench_server" --requests 100000 \
    --min-warm-speedup 3 --max-rss-growth-mb 64 \
    --min-tcp-ratio 0.85 --max-qos-p99-factor 3 --min-fifo-qos-ratio 1.3 \
    --json "$TMP/server.json" > /dev/null

python3 "$(dirname "$0")/bench_json.py" \
    --out "$OUT" \
    --google-benchmark "$TMP/compile_time.json" \
    --analysis "$TMP/analysis.json" \
    --obs "$TMP/obs.json" \
    --server "$TMP/server.json" \
    "$TMP"/fig3_loop.json "$TMP"/two_block_trace.json \
    "$TMP"/memory_alias.json "$TMP"/diamond_cfg.json

echo "wrote $OUT"
