#!/bin/sh
# bench.sh — run the benchmark suite and emit BENCH_svs.json, the
# machine-readable perf trajectory (one entry per benchmark, custom
# metrics included).
#
# Two benchmark classes are run differently:
#
#   figures — the Fig3–Fig5 scenario replays plus the join and merge
#     state-transfer scenarios. Each iteration replays a full recorded
#     session (or a full partition/heal cycle), so one iteration is the
#     measurement and ns/op is not a latency figure; they run at
#     -benchtime 1x and their custom metrics (thresholds, idle%,
#     occupancy, xfer-bytes, merge-bytes) are the payload.
#   micro — the hot-path microbenchmarks (wire codec, engine multicast,
#     multi-group node throughput, view change, queue purge/pop, the
#     game-session generator every run and figure starts from).
#     Single-iteration numbers are noise here, so they run at a fixed
#     iteration count with -count repeats and the JSON records the
#     per-metric mean over the repeats.
#   saturation — the batched data-plane saturation grid (BenchmarkSaturation,
#     memnet + TCP, groups x senders). Time-based benchtime so every point
#     reaches its steady state; agg-msgs/s and allocs/op are the payload.
#
# Usage: scripts/bench.sh [micro-benchtime] [micro-count] [sat-benchtime]
#   defaults: 2000x iterations, 3 repeats, 1s saturation benchtime.
set -eu

cd "$(dirname "$0")/.."
MICRO_BENCHTIME="${1:-2000x}"
MICRO_COUNT="${2:-3}"
SAT_BENCHTIME="${3:-1s}"
OUT="BENCH_svs.json"
RAW_FIG="$(mktemp)"
RAW_MICRO="$(mktemp)"
RAW_SAT="$(mktemp)"
trap 'rm -f "$RAW_FIG" "$RAW_MICRO" "$RAW_SAT"' EXIT

# go test runs straight into the raw files (not through a pipeline) so a
# failing benchmark aborts the script under set -e instead of silently
# producing an incomplete JSON.
echo "== figures (scenario replays, -benchtime 1x) =="
go test -run '^$' -bench 'BenchmarkFig|BenchmarkJoinStateTransfer|BenchmarkMergeStateTransfer' -benchtime 1x . > "$RAW_FIG" 2>&1 || {
    cat "$RAW_FIG" >&2
    exit 1
}
cat "$RAW_FIG"

echo "== micro (-benchtime $MICRO_BENCHTIME -count $MICRO_COUNT, means reported) =="
go test -run '^$' \
    -bench 'BenchmarkWireCodec|BenchmarkEngineMulticast|BenchmarkMulticastInstrumented|BenchmarkMultiGroup|BenchmarkViewChangeLatency|BenchmarkQueuePurgeFor|BenchmarkQueuePopHead|BenchmarkTraceGenerate' \
    -benchtime "$MICRO_BENCHTIME" -count "$MICRO_COUNT" -benchmem . > "$RAW_MICRO" 2>&1 || {
    cat "$RAW_MICRO" >&2
    exit 1
}
cat "$RAW_MICRO"

echo "== saturation (-benchtime $SAT_BENCHTIME) =="
go test -run '^$' -bench 'BenchmarkSaturation' \
    -benchtime "$SAT_BENCHTIME" -benchmem . > "$RAW_SAT" 2>&1 || {
    cat "$RAW_SAT" >&2
    exit 1
}
cat "$RAW_SAT"

# emit_entries CLASS FILE — one JSON object line per benchmark name;
# repeated runs of the same name (micro -count) are averaged per metric.
emit_entries() {
    awk -v class="$1" '
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
        if (!(name in seen)) { seen[name] = 1; order[++n] = name }
        iters[name] = $2
        runs[name]++
        for (i = 3; i + 1 <= NF; i += 2) {
            metric = $(i + 1)
            key = name SUBSEP metric
            if (!(key in msum)) mlist[name] = mlist[name] SUBSEP metric
            msum[key] += $i
            mcnt[key]++
        }
    }
    END {
        for (j = 1; j <= n; j++) {
            name = order[j]
            printf "    {\"name\": \"%s\", \"class\": \"%s\", \"iterations\": %s, \"runs\": %d, \"metrics\": {",
                name, class, iters[name], runs[name]
            cnt = split(substr(mlist[name], 2), metrics, SUBSEP)
            for (k = 1; k <= cnt; k++) {
                key = name SUBSEP metrics[k]
                printf "%s\"%s\": %g", (k > 1 ? ", " : ""), metrics[k], msum[key] / mcnt[key]
            }
            printf "}},\n"
        }
    }' "$2"
}

{
    printf '{\n'
    printf '  "source": "scripts/bench.sh",\n'
    printf '  "runs": {\n'
    printf '    "figures": {"benchtime": "1x", "count": 1, "note": "Fig3-Fig5 scenario replays plus the join and merge state transfers: one iteration replays a whole recorded session (or a full partition/heal cycle); the custom metrics are the measurement, ns/op is not a hot-path latency. The merge pair shows the semantic contribution staying O(window) while the reliable baseline carries the whole divergent history"},\n'
    printf '    "micro": {"benchtime": "%s", "count": %s, "note": "hot-path microbenchmarks: fixed iteration count, per-metric means over count runs"},\n' "$MICRO_BENCHTIME" "$MICRO_COUNT"
    printf '    "saturation": {"benchtime": "%s", "count": 1, "note": "batched data-plane saturation grid: agg-msgs/s is aggregate delivered multicast throughput across groups x senders; allocs/op must stay 0 on the members=2/groups=1 steady-state point"}\n' "$SAT_BENCHTIME"
    printf '  },\n'
    printf '  "benchmarks": [\n'
    { emit_entries figure "$RAW_FIG"; emit_entries micro "$RAW_MICRO"; emit_entries saturation "$RAW_SAT"; } | sed '$ s/,$//'
    printf '  ]\n'
    printf '}\n'
} > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"
