#!/bin/sh
# smoke_recovery.sh — crash-recovery smoke test of the tafpgad daemon.
#
# Exercises the durability path end to end:
#
#   1. Start tafpgad with -state-dir, run one job to completion (the
#      reference result), submit a second job and SIGKILL the daemon while
#      it is running.
#   2. Restart over the same state dir, which must hold both jobs' spec
#      files and only the finished job's finish file, plus a temp file
#      planted as a write torn by the kill. The restart must remove the temp
#      file. The finished job must come back byte-identical without
#      recompute, the interrupted job must requeue, run, and (the flow being
#      deterministic) produce the expected result, after which the state dir
#      holds exactly both jobs' spec and finish files. An invalid spec must
#      still fail fast with a 400.
#
# Environment:
#   ADDR=host:port  listen address (default 127.0.0.1:18081)
#   SCALE=f         benchmark scale (default 1/64, the test harness scale)
#   TIMEOUT=n       per-phase budget in seconds (default 300)
set -eu

cd "$(dirname "$0")/.."

ADDR="${ADDR:-127.0.0.1:18081}"
SCALE="${SCALE:-0.015625}"
TIMEOUT="${TIMEOUT:-300}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
BIN="$WORK/tafpgad"
STATE="$WORK/state"
LOG="$WORK/daemon.log"
PID=""

fail() {
	echo "smoke_recovery: FAIL: $*" >&2
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

# start_daemon [extra flags...] — launches tafpgad and waits for /readyz.
start_daemon() {
	"$BIN" -addr "$ADDR" -scale "$SCALE" -w 104 -effort 0.3 -bench sha \
		-drain 60s "$@" >"$LOG" 2>&1 &
	PID=$!
	i=0
	until curl -fsS "$BASE/readyz" >/dev/null 2>&1; do
		kill -0 "$PID" 2>/dev/null || fail "daemon died during warmup"
		i=$((i + 1))
		[ "$i" -le "$TIMEOUT" ] || fail "daemon not ready after ${TIMEOUT}s"
		sleep 1
	done
}

# poll_done id — polls a job until done, echoing the final view.
poll_done() {
	i=0
	while :; do
		VIEW="$(curl -fsS "$BASE/v1/jobs/$1")"
		STATE_NOW="$(echo "$VIEW" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)"
		case "$STATE_NOW" in
		done)
			echo "$VIEW"
			return 0
			;;
		failed | cancelled) fail "job $1 ended $STATE_NOW: $VIEW" ;;
		esac
		i=$((i + 1))
		[ "$i" -le "$TIMEOUT" ] || fail "job $1 still $STATE_NOW after ${TIMEOUT}s"
		sleep 1
	done
}

# state_files — the state dir's entries on one line, sorted.
state_files() {
	ls -A "$STATE" | sort | tr '\n' ' '
}

# expect_files name... — fails unless the state dir holds exactly these.
expect_files() {
	WANT="$(printf '%s\n' "$@" | sort | tr '\n' ' ')"
	[ "$(state_files)" = "$WANT" ] || fail "state dir holds: $(state_files)
want: $WANT"
}

# job_id response — extracts the job id from a submit response.
job_id() {
	echo "$1" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4
}

# result_of view — extracts the result JSON, dropping the run-dependent
# prefix (timestamps, the recovered flag).
result_of() {
	echo "$1" | sed 's/.*"result"://'
}

echo "building tafpgad..." >&2
go build -o "$BIN" ./cmd/tafpgad

SPEC_A='{"kind":"guardband","benchmark":"sha","ambient_c":25}'
# The victim must still be running when the SIGKILL lands: bgm is one of
# the larger suite benchmarks that still routes at the smoke channel width,
# and a different benchmark than the reference so the in-process flow cache
# cannot shortcut its place-and-route.
SPEC_B='{"kind":"guardband","benchmark":"bgm","ambient_c":30}'

# --- Phase 1: reference run, then SIGKILL mid-job -------------------------
echo "phase 1: starting daemon with -state-dir $STATE..." >&2
start_daemon -state-dir "$STATE"

echo "running the reference job to completion..." >&2
ID_A="$(job_id "$(curl -fsS "$BASE/v1/jobs" -d "$SPEC_A")")"
[ -n "$ID_A" ] || fail "no job id for reference job"
VIEW_A_BEFORE="$(poll_done "$ID_A")"
RESULT_REF="$(result_of "$VIEW_A_BEFORE")"
echo "$RESULT_REF" | grep -q '"' || fail "reference job has no result: $VIEW_A_BEFORE"

echo "submitting the victim job and waiting for it to run..." >&2
ID_B="$(job_id "$(curl -fsS "$BASE/v1/jobs" -d "$SPEC_B")")"
[ -n "$ID_B" ] || fail "no job id for victim job"
i=0
while :; do
	STATE_B="$(curl -fsS "$BASE/v1/jobs/$ID_B" | grep -o '"state":"[^"]*"' | head -1 | cut -d'"' -f4)"
	[ "$STATE_B" = "running" ] && break
	[ "$STATE_B" = "done" ] && fail "victim job finished before it could be killed; raise the benchmark scale"
	i=$((i + 1))
	[ "$i" -le $((TIMEOUT * 5)) ] || fail "victim job never started running"
	sleep 0.2
done

echo "SIGKILL while $ID_B is running..." >&2
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
# Nothing is written when a job starts running, so the kill leaves the
# victim with its spec file alone.
expect_files "$ID_A.spec.json" "$ID_A.done.json" "$ID_B.spec.json"
TORN="$ID_B.done.json.tmp-torn"
echo '{"id":"'"$ID_B"'","state":"do' >"$STATE/$TORN"

# --- Phase 2: restart, recover, verify ------------------------------------
echo "phase 2: restarting over the same state dir..." >&2
start_daemon -state-dir "$STATE"
grep -qF "1 finished job(s) restored, 1 interrupted job(s) requeued" "$LOG" ||
	fail "restart did not report the expected recovery stats"
[ ! -e "$STATE/$TORN" ] || fail "restart left the torn temp file $TORN"

echo "checking the restored job serves byte-identical JSON..." >&2
VIEW_A_AFTER="$(curl -fsS "$BASE/v1/jobs/$ID_A")"
[ "$VIEW_A_AFTER" = "$VIEW_A_BEFORE" ] ||
	fail "restored view differs:
before: $VIEW_A_BEFORE
after:  $VIEW_A_AFTER"

echo "waiting for the requeued job to finish..." >&2
VIEW_B="$(poll_done "$ID_B")"
echo "$VIEW_B" | grep -q '"recovered":true' || fail "requeued job not marked recovered: $VIEW_B"
curl -fsS "$BASE/v1/jobs/$ID_B/events" | grep -q '"type":"recovered"' ||
	fail "requeued job's event stream has no recovered marker"
expect_files "$ID_A.spec.json" "$ID_A.done.json" "$ID_B.spec.json" "$ID_B.done.json"

METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -qF "tafpgad_jobs_restored_total 1" || fail "/metrics missing restored_total 1"
echo "$METRICS" | grep -qF "tafpgad_jobs_recovered_total 1" || fail "/metrics missing recovered_total 1"

echo "checking an invalid spec still fails fast..." >&2
CODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/jobs" -d '{"kind":"guardband","benchmark":"nope","ambient_c":25}')"
[ "$CODE" = "400" ] || fail "invalid spec returned $CODE, want 400"

kill -TERM "$PID"
wait "$PID" || fail "daemon exited non-zero on SIGTERM after recovery"
PID=""

echo "smoke_recovery: PASS" >&2
