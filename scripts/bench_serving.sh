#!/bin/sh
# bench_serving.sh — serving-layer throughput/latency benchmark: one
# tafpgad daemon running -workers $(nproc) concurrent jobs, driven by a
# deterministic open-loop workload (cmd/taload) and measured from the
# daemon's own /metrics histograms.
#
# Writes BENCH_serving.json:
#   cores    the harness core count (nproc), also the daemon's -workers — a
#            wall-clock number is never read across machine shapes
#            unknowingly
#   daemon   taload's full report against the daemon
#
# Environment:
#   PORT_BASE=n   daemon port (default 18100)
#   SCALE=f       benchmark scale (default 1/4)
#   RATE=r        arrival rate, jobs/s (default 60)
#   DURATION=d    submission window (default 15s)
#   SEED=n        workload seed (default 7)
#   OUT=path      output JSON (default BENCH_serving.json)
set -eu

cd "$(dirname "$0")/.."

PORT_BASE="${PORT_BASE:-18100}"
# At scale 1/4 a cache-hot guardband job (implementation served from the
# flow cache, thermal iteration recomputed) averages ~20ms of CPU across
# the benchmark mix, so the default arrival rate exceeds the daemon's
# steady-state capacity and the open-loop run measures throughput at
# saturation (completed/wall during submit+drain), not the arrival rate
# echoed back. The ~3s cold build per benchmark is paid once per cache.
SCALE="${SCALE:-0.25}"
RATE="${RATE:-60}"
DURATION="${DURATION:-15s}"
SEED="${SEED:-7}"
OUT="${OUT:-BENCH_serving.json}"
CORES="$(nproc 2>/dev/null || echo 1)"
URL="http://127.0.0.1:$PORT_BASE"
WORK="$(mktemp -d)"
BIN="$WORK/tafpgad"
LOADBIN="$WORK/taload"
PID=""

fail() {
	echo "bench_serving: FAIL: $*" >&2
	for log in "$WORK"/*.log; do
		echo "--- $log ---" >&2
		tail -20 "$log" >&2 || true
	done
	exit 1
}

cleanup() {
	[ -z "$PID" ] || kill "$PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

echo "building tafpgad and taload..." >&2
go build -o "$BIN" ./cmd/tafpgad
go build -o "$LOADBIN" ./cmd/taload

echo "one daemon at $URL, $CORES worker(s)..." >&2
"$BIN" -addr "127.0.0.1:$PORT_BASE" -scale "$SCALE" -workers "$CORES" \
	-flowcache "$WORK/cache" -drain 60s -queue 8192 \
	>"$WORK/daemon.log" 2>&1 &
PID="$!"
i=0
until curl -fsS "$URL/readyz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -le 300 ] || fail "daemon not ready"
	sleep 1
done
"$LOADBIN" -url "$URL" -rate "$RATE" -duration "$DURATION" -seed "$SEED" \
	-out "$WORK/daemon.json" 2>>"$WORK/taload.log" || fail "taload failed"
kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""

jq -n \
	--slurpfile daemon "$WORK/daemon.json" \
	--argjson cores "$CORES" \
	--arg scale "$SCALE" \
	'{
	  suite: "serving",
	  subject: "open-loop mixed guardband/sweep stream, benchmark scale \($scale)",
	  cores: $cores,
	  daemon: $daemon[0]
	}' >"$OUT"

echo "wrote $OUT" >&2
jq '{cores, throughput: .daemon.throughput_jobs_per_s, latency_s: .daemon.latency_s}' "$OUT" >&2
