#!/bin/sh
# smoke_daemon.sh — end-to-end smoke test of the tafpgad serving daemon.
#
# Starts tafpgad at a small benchmark scale, waits for /readyz, submits the
# same guardband job twice (the second must coalesce onto the first), polls
# the job to completion, checks the NDJSON event stream ends on the terminal
# state, then submits a multi-ambient sweep job from 0 °C and asserts its
# progress events carry per-ambient attribution ("ambient_c"), submits a
# thermal-place-compare job and asserts its progress events carry per-phase
# attribution ("phase":"baseline" / "phase":"thermal"), submits a min-energy
# job and asserts its progress events narrate the Vdd bisection ("vdd_v"),
# scrapes /metrics for the dedup counters and the per-kind submission
# counter, and finally SIGTERMs the daemon and asserts a graceful
# zero-status exit.
#
# Environment:
#   ADDR=host:port  listen address (default 127.0.0.1:18080)
#   SCALE=f         benchmark scale (default 1/64, the test harness scale)
#   TIMEOUT=n       per-phase budget in seconds (default 300)
set -eu

cd "$(dirname "$0")/.."

ADDR="${ADDR:-127.0.0.1:18080}"
SCALE="${SCALE:-0.015625}"
TIMEOUT="${TIMEOUT:-300}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
BIN="$WORK/tafpgad"
LOG="$WORK/daemon.log"
PID=""

fail() {
	echo "smoke_daemon: FAIL: $*" >&2
	echo "--- daemon log ---" >&2
	cat "$LOG" >&2
	exit 1
}

# A failed or interrupted run must not leave a daemon draining for up to
# -drain behind it: kill it outright and reap it before removing its files.
cleanup() {
	if [ -n "$PID" ]; then
		kill -KILL "$PID" 2>/dev/null || true
		wait "$PID" 2>/dev/null || true
	fi
	rm -rf "$WORK"
}
trap cleanup EXIT
# dash skips the EXIT trap when a signal kills the shell; exit instead so
# the daemon is always stopped.
trap 'exit 130' INT
trap 'exit 143' TERM
trap 'exit 129' HUP

echo "building tafpgad..." >&2
go build -o "$BIN" ./cmd/tafpgad

"$BIN" -addr "$ADDR" -scale "$SCALE" -w 104 -effort 0.3 -bench sha \
	-drain 60s >"$LOG" 2>&1 &
PID=$!

echo "waiting for /readyz..." >&2
i=0
until curl -fsS "$BASE/readyz" >/dev/null 2>&1; do
	kill -0 "$PID" 2>/dev/null || fail "daemon died during warmup"
	i=$((i + 1))
	[ "$i" -le "$TIMEOUT" ] || fail "daemon not ready after ${TIMEOUT}s"
	sleep 1
done
curl -fsS "$BASE/healthz" >/dev/null || fail "/healthz unhealthy"

# bgm is one of the larger suite benchmarks: at the smoke scale it runs
# long enough that the second submission reliably lands while the first
# job is still queued or running (sha finishes in tens of milliseconds on
# a fast machine, losing the dedup race to the second curl's startup).
SPEC='{"kind":"guardband","benchmark":"bgm","ambient_c":25}'
echo "submitting job twice (second must dedup)..." >&2
R1="$(curl -fsS "$BASE/v1/jobs" -d "$SPEC")"
R2="$(curl -fsS "$BASE/v1/jobs" -d "$SPEC")"
ID1="$(echo "$R1" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)"
ID2="$(echo "$R2" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)"
[ -n "$ID1" ] || fail "no job id in response: $R1"
[ "$ID1" = "$ID2" ] || fail "identical specs got distinct jobs: $ID1 vs $ID2"
echo "$R2" | grep -q '"deduped":true' || fail "second submission not deduped: $R2"

echo "polling $ID1 to completion..." >&2
i=0
while :; do
	VIEW="$(curl -fsS "$BASE/v1/jobs/$ID1")"
	STATE="$(echo "$VIEW" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)"
	case "$STATE" in
	done) break ;;
	failed | cancelled) fail "job ended $STATE: $VIEW" ;;
	esac
	i=$((i + 1))
	[ "$i" -le "$TIMEOUT" ] || fail "job still $STATE after ${TIMEOUT}s"
	sleep 1
done
echo "$VIEW" | grep -q '"result"' || fail "done job has no result: $VIEW"

echo "checking the event stream replay..." >&2
EVENTS="$(curl -fsS "$BASE/v1/jobs/$ID1/events")"
echo "$EVENTS" | head -1 | grep -q '"state":"queued"' || fail "stream must start queued: $EVENTS"
echo "$EVENTS" | tail -1 | grep -q '"state":"done"' || fail "stream must end done: $EVENTS"
echo "$EVENTS" | grep -q '"type":"progress"' || fail "stream has no Algorithm-1 progress events: $EVENTS"

# A three-ambient sweep starting at 0 °C: every progress event must name
# its ambient, 0 °C included.
SWEEP_SPEC='{"kind":"sweep","benchmark":"bgm","ambients":[0,45,70]}'
echo "submitting a sweep job..." >&2
R3="$(curl -fsS "$BASE/v1/jobs" -d "$SWEEP_SPEC")"
ID3="$(echo "$R3" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)"
[ -n "$ID3" ] || fail "no job id in sweep response: $R3"

echo "polling $ID3 to completion..." >&2
i=0
while :; do
	VIEW="$(curl -fsS "$BASE/v1/jobs/$ID3")"
	STATE="$(echo "$VIEW" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)"
	case "$STATE" in
	done) break ;;
	failed | cancelled) fail "sweep job ended $STATE: $VIEW" ;;
	esac
	i=$((i + 1))
	[ "$i" -le "$TIMEOUT" ] || fail "sweep job still $STATE after ${TIMEOUT}s"
	sleep 1
done

echo "checking per-ambient attribution in the sweep stream..." >&2
SWEEP_EVENTS="$(curl -fsS "$BASE/v1/jobs/$ID3/events")"
echo "$SWEEP_EVENTS" | tail -1 | grep -q '"state":"done"' || fail "sweep stream must end done: $SWEEP_EVENTS"
for amb in 0 45 70; do
	echo "$SWEEP_EVENTS" | grep -q "\"ambient_c\":$amb[,}]" ||
		fail "sweep stream has no progress event attributed to ${amb}°C: $SWEEP_EVENTS"
done

# The -bench sha restriction scopes suite-wide jobs, so the comparison runs
# one benchmark through the guardband twice: thermally-oblivious placement
# vs thermal-aware under the spec's weight.
THERMAL_SPEC='{"kind":"thermal-place-compare","ambient_c":25,"thermal_weight":0.5}'
echo "submitting a thermal-place-compare job..." >&2
R4="$(curl -fsS "$BASE/v1/jobs" -d "$THERMAL_SPEC")"
ID4="$(echo "$R4" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)"
[ -n "$ID4" ] || fail "no job id in thermal-place-compare response: $R4"

echo "polling $ID4 to completion..." >&2
i=0
while :; do
	VIEW="$(curl -fsS "$BASE/v1/jobs/$ID4")"
	STATE="$(echo "$VIEW" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)"
	case "$STATE" in
	done) break ;;
	failed | cancelled) fail "thermal-place-compare job ended $STATE: $VIEW" ;;
	esac
	i=$((i + 1))
	[ "$i" -le "$TIMEOUT" ] || fail "thermal-place-compare job still $STATE after ${TIMEOUT}s"
	sleep 1
done
echo "$VIEW" | grep -q '"result"' || fail "done thermal-place-compare job has no result: $VIEW"

echo "checking per-phase attribution in the compare stream..." >&2
THERMAL_EVENTS="$(curl -fsS "$BASE/v1/jobs/$ID4/events")"
echo "$THERMAL_EVENTS" | tail -1 | grep -q '"state":"done"' || fail "compare stream must end done: $THERMAL_EVENTS"
for phase in baseline thermal; do
	echo "$THERMAL_EVENTS" | grep -q "\"phase\":\"$phase\"" ||
		fail "compare stream has no progress event attributed to the $phase phase: $THERMAL_EVENTS"
done

# The min-energy objective bisects the minimum safe core rail at the
# benchmark's own baseline clock; every progress event must carry the
# candidate rail so stream consumers can follow the search.
ENERGY_SPEC='{"kind":"min-energy","benchmark":"bgm","ambients":[25]}'
echo "submitting a min-energy job..." >&2
R5="$(curl -fsS "$BASE/v1/jobs" -d "$ENERGY_SPEC")"
ID5="$(echo "$R5" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)"
[ -n "$ID5" ] || fail "no job id in min-energy response: $R5"

echo "polling $ID5 to completion..." >&2
i=0
while :; do
	VIEW="$(curl -fsS "$BASE/v1/jobs/$ID5")"
	STATE="$(echo "$VIEW" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)"
	case "$STATE" in
	done) break ;;
	failed | cancelled) fail "min-energy job ended $STATE: $VIEW" ;;
	esac
	i=$((i + 1))
	[ "$i" -le "$TIMEOUT" ] || fail "min-energy job still $STATE after ${TIMEOUT}s"
	sleep 1
done
echo "$VIEW" | grep -q '"result"' || fail "done min-energy job has no result: $VIEW"
echo "$VIEW" | grep -q '"MinVddV"' || fail "min-energy result has no MinVddV: $VIEW"

echo "checking Vdd-probe attribution in the min-energy stream..." >&2
ENERGY_EVENTS="$(curl -fsS "$BASE/v1/jobs/$ID5/events")"
echo "$ENERGY_EVENTS" | tail -1 | grep -q '"state":"done"' || fail "min-energy stream must end done: $ENERGY_EVENTS"
echo "$ENERGY_EVENTS" | grep -q '"vdd_v":' || fail "min-energy stream has no bisection probe events: $ENERGY_EVENTS"
# The bisection always probes the nominal rail and at least one lower one.
RAILS="$(echo "$ENERGY_EVENTS" | grep -o '"vdd_v":[0-9.]*' | sort -u | wc -l)"
[ "$RAILS" -ge 2 ] || fail "min-energy stream narrated only $RAILS distinct rail(s): $ENERGY_EVENTS"

echo "scraping /metrics..." >&2
METRICS="$(curl -fsS "$BASE/metrics")"
# The per-kind counter attributes all five accepted submissions.
for want in \
	"tafpgad_jobs_submitted_total 5" \
	"tafpgad_jobs_deduped_total 1" \
	"tafpgad_jobs_completed_total 4" \
	"tafpgad_job_duration_seconds_count 4" \
	"tafpgad_jobs_total{kind=\"guardband\"} 2" \
	"tafpgad_jobs_total{kind=\"sweep\"} 1" \
	"tafpgad_jobs_total{kind=\"thermal-place-compare\"} 1" \
	"tafpgad_jobs_total{kind=\"min-energy\"} 1"; do
	echo "$METRICS" | grep -qF "$want" || fail "/metrics missing '$want':
$METRICS"
done

echo "SIGTERM, expecting graceful drain..." >&2
kill -TERM "$PID"
if ! wait "$PID"; then
	PID=""
	fail "daemon exited non-zero on SIGTERM"
fi
PID=""
grep -q "drained cleanly" "$LOG" || fail "daemon did not report a clean drain"

echo "smoke_daemon: PASS" >&2
