#!/bin/sh
# bench.sh — run a perf-regression benchmark suite and emit a JSON summary
# with before/after (Reference vs optimized) pairs.
#
# Usage:
#   scripts/bench.sh [suite] [count]
#
#   suite   "inner" (default): the Algorithm-1 inner-loop kernels
#                              → BENCH_inner_loop.json
#           "flow":            the implementation front-end (place, route,
#                              full build, cached build) → BENCH_flow.json
#           "serving":         one daemon's open-loop throughput and
#                              latency at -workers $(nproc) via
#                              scripts/bench_serving.sh
#                              → BENCH_serving.json (count is ignored)
#           "all":             every suite in sequence, each to its default
#                              output file (OUT is ignored)
#   count   benchmark repetitions (default 3)
#
# Environment:
#   OUT=path    output JSON (default per suite, in the repo root)
#   BENCHTIME=  go test -benchtime value (default 10x for inner, 1x for
#               flow — a cold mcml build takes tens of seconds)
#   SWEEP_BATCH=  lane width recorded for the inner suite's batched sweep
#               pair (default 11, the full 0:100:10 ambient axis both sweep
#               benchmarks traverse). Per-lane results are bit-identical at
#               every width; the width is recorded in the JSON
#               so the speedup is never read without its batch width.
#
# The optimized and seed kernels live in the same test binary (Analyze vs
# AnalyzeReference, Solve vs SolveReference, Place vs PlaceReference, Route
# vs RouteReference, and the whole-run compositions of internal/oracle for
# GuardbandRunReference and FlowBuildReference), so every pair below is
# measured by one build on one machine.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "all" ]; then
	shift
	# Each suite writes its own default OUT; an inherited OUT would make
	# the second run clobber the first.
	OUT="" "$0" inner "$@"
	OUT="" "$0" flow "$@"
	OUT="" "$0" serving
	exit 0
fi

if [ "${1:-}" = "serving" ]; then
	# The serving suite measures whole deployments, not kernels: it lives in
	# its own harness.
	exec sh scripts/bench_serving.sh
fi

SUITE="inner"
case "${1:-}" in
inner | flow)
	SUITE="$1"
	shift
	;;
esac
COUNT="${1:-3}"

SWEEP_BATCH_JSON=""
case "$SUITE" in
inner)
	BENCH='BenchmarkHotspotSolve|BenchmarkSTAAnalyze|BenchmarkSTASlacks|BenchmarkGuardbandRun|BenchmarkGuardbandSweep|BenchmarkMinEnergy'
	BENCHTIME="${BENCHTIME:-10x}"
	OUT="${OUT:-BENCH_inner_loop.json}"
	# MinEnergySearch (one VddLab sharing per-rail derivations across the
	# ambient axis) is paired against the naive per-probe rebuild; the
	# physics is bit-identical (TestMinEnergyBenchmarkAgreement).
	PAIRS='HotspotSolve=HotspotSolveReference,STAAnalyze=STAAnalyzeReference,GuardbandRun=GuardbandRunReference,GuardbandSweepBatch=GuardbandSweepSerial,MinEnergySearch=MinEnergyRebuild'
	# The batched sweep runs at full width (one lane per ambient of the
	# 0:100:10 axis); record the width next to the speedup.
	SWEEP_BATCH_JSON="${SWEEP_BATCH:-11}"
	;;
flow)
	BENCH='BenchmarkPlace|BenchmarkRoute|BenchmarkFlowBuild|BenchmarkThermalPlace'
	BENCHTIME="${BENCHTIME:-1x}"
	OUT="${OUT:-BENCH_flow.json}"
	# ThermalPlaceMoveDelta is paired against a full hotspot solve per move
	# (the alternative the truncated kernel replaces; acceptance floor 10x),
	# and FlowBuildThermal against the thermally-oblivious build — that
	# "speedup" is < 1 by construction and reads as the thermal term's
	# whole-flow overhead.
	PAIRS='Place=PlaceReference,Route=RouteReference,FlowBuild=FlowBuildReference,ThermalPlaceMoveDelta=ThermalPlaceFullSolve,FlowBuildThermal=FlowBuild'
	;;
esac

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "running $SUITE benchmarks (count=$COUNT, benchtime=$BENCHTIME)..." >&2
go test -run '^$' \
	-bench "$BENCH" \
	-benchmem -benchtime="$BENCHTIME" -count="$COUNT" . | tee "$RAW" >&2

awk -v count="$COUNT" -v benchtime="$BENCHTIME" -v suite="$SUITE" -v pairspec="$PAIRS" -v sweepbatch="$SWEEP_BATCH_JSON" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)       # strip -GOMAXPROCS suffix
    sub(/^Benchmark/, "", name)
    ns[name] += $3; runs[name]++
    for (i = 4; i < NF; i++) if ($(i+1) == "B/op") bop[name] += $i
}
/^(goos|goarch|pkg|cpu):/ { meta[$1] = $2 }
END {
    printf "{\n"
    printf "  \"suite\": \"%s\",\n", (suite == "inner" ? "inner_loop" : suite)
    printf "  \"subject\": \"mcml (largest bundled benchmark) at the shared harness scale\",\n"
    printf "  \"goos\": \"%s\",\n", meta["goos:"]
    printf "  \"goarch\": \"%s\",\n", meta["goarch:"]
    printf "  \"count\": %d,\n", count
    printf "  \"benchtime\": \"%s\",\n", benchtime
    if (sweepbatch != "") printf "  \"sweep_batch\": %s,\n", sweepbatch
    printf "  \"benchmarks\": {\n"
    n = 0
    for (k in ns) order[++n] = k
    # stable output: simple insertion sort by name
    for (i = 2; i <= n; i++) {
        v = order[i]
        for (j = i - 1; j >= 1 && order[j] > v; j--) order[j+1] = order[j]
        order[j+1] = v
    }
    for (i = 1; i <= n; i++) {
        k = order[i]
        printf "    \"%s\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %.1f}%s\n", \
            k, ns[k]/runs[k], bop[k]/runs[k], (i < n ? "," : "")
    }
    printf "  },\n"
    printf "  \"speedups\": {\n"
    m = split(pairspec, plist, ",")
    for (i = 1; i <= m; i++) {
        split(plist[i], kv, "=")
        pairs[kv[1]] = kv[2]
    }
    pm = 0
    for (k in pairs) porder[++pm] = k
    for (i = 2; i <= pm; i++) {
        v = porder[i]
        for (j = i - 1; j >= 1 && porder[j] > v; j--) porder[j+1] = porder[j]
        porder[j+1] = v
    }
    first = 1
    for (i = 1; i <= pm; i++) {
        a = porder[i]; r = pairs[a]
        if (runs[a] && runs[r]) {
            if (!first) printf ",\n"
            first = 0
            printf "    \"%s\": {\"before_ns\": %.1f, \"after_ns\": %.1f, \"speedup\": %.2f}", \
                a, ns[r]/runs[r], ns[a]/runs[a], (ns[r]/runs[r])/(ns[a]/runs[a])
        }
    }
    printf "\n  }\n"
    printf "}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT" >&2
