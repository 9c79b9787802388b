package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newJournal opens a journal over a per-test state dir.
func newJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// resultJSON marshals a job view's result.
func resultJSON(t *testing.T, v View) []byte {
	t.Helper()
	b, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoveryServesFinishedResultByteIdentical is the durability core: a
// finished job must survive a restart and serve the exact result bytes it
// served before, without re-running anything.
func TestRecoveryServesFinishedResultByteIdentical(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	run := func(ctx context.Context, spec Spec, emit func(Event)) (any, error) {
		runs.Add(1)
		emit(Event{Benchmark: spec.Benchmark, Iteration: 1, FmaxMHz: 321.0625})
		return map[string]any{"fmax_mhz": 321.0625, "ambient": spec.AmbientC}, nil
	}

	m1 := New(run, Options{Journal: newJournal(t, dir)})
	v, _, err := m1.Submit(validSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	before := waitState(t, m1, v.ID, StateDone)
	beforeJSON := resultJSON(t, before)
	m1.Close()

	m2 := New(run, Options{Journal: newJournal(t, dir)})
	defer m2.Close()
	restored, requeued := m2.RecoveryStats()
	if restored != 1 || requeued != 0 {
		t.Fatalf("recovery stats = (%d, %d), want (1, 0)", restored, requeued)
	}
	after, ok := m2.Get(v.ID)
	if !ok {
		t.Fatalf("job %s not restored", v.ID)
	}
	if after.State != StateDone {
		t.Fatalf("restored state = %s", after.State)
	}
	if !bytes.Equal(resultJSON(t, after), beforeJSON) {
		t.Fatalf("restored result %s != original %s", resultJSON(t, after), beforeJSON)
	}
	if runs.Load() != 1 {
		t.Fatalf("restore must not recompute: runs = %d", runs.Load())
	}
	// The event history replays too: the NDJSON stream of a restored job
	// starts queued and ends done, like the live one did.
	history, _, cancel, err := m2.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if len(history) < 3 || history[0].State != StateQueued || history[len(history)-1].State != StateDone {
		t.Fatalf("restored history = %+v", history)
	}
}

// TestRecoveryRequeuesInterruptedJobs: jobs queued or running at the crash
// re-enter the queue, marked recovered, and run to completion.
func TestRecoveryRequeuesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	var runs atomic.Int64
	blocking := func(ctx context.Context, spec Spec, emit func(Event)) (any, error) {
		runs.Add(1)
		select {
		case <-block:
			return spec.AmbientC, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("stub: %w", ctx.Err())
		}
	}

	m1 := New(blocking, Options{Workers: 1, Journal: newJournal(t, dir)})
	vRun, _, err := m1.Submit(validSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, vRun.ID, StateRunning)
	vQueued, _, err := m1.Submit(validSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: no Drain, no graceful finish — the spec files are
	// all that survives. (Close would write cancelled finish files; a
	// SIGKILL does not, so bypass it and just abandon the manager's
	// goroutines.)

	m2 := New(func(ctx context.Context, spec Spec, emit func(Event)) (any, error) {
		runs.Add(1)
		return spec.AmbientC, nil
	}, Options{Journal: newJournal(t, dir)})
	defer m2.Close()
	restored, requeued := m2.RecoveryStats()
	if restored != 0 || requeued != 2 {
		t.Fatalf("recovery stats = (%d, %d), want (0, 2)", restored, requeued)
	}
	for i, id := range []string{vRun.ID, vQueued.ID} {
		v := waitState(t, m2, id, StateDone)
		if !v.Recovered {
			t.Fatalf("job %s not marked recovered: %+v", id, v)
		}
		if v.Result != float64(20+1+i) {
			t.Fatalf("job %s result = %v", id, v.Result)
		}
	}
	// The recovered jobs' histories carry the recovery marker. They are
	// read from the finish files, so read them while the state dir holds
	// only what m2 wrote, as after a real crash.
	history, _, cancel, err := m2.Subscribe(vRun.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	sawRecovered := false
	for _, e := range history {
		if e.Type == EventRecovered {
			sawRecovered = true
		}
	}
	if !sawRecovered {
		t.Fatalf("no recovered event in history: %+v", history)
	}

	// Unblock the abandoned first manager and wait for its goroutines, so
	// its late finish files land before the state dir is removed.
	close(block)
	m1.Close()
}

// TestRecoveryEvictsExpiredAndCompacts: terminal jobs past the TTL at
// restart are not restored, both of their state files are deleted, and new
// IDs continue past theirs.
func TestRecoveryEvictsExpiredAndCompacts(t *testing.T) {
	dir := t.TempDir()
	clock := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	now := func() time.Time { return clock }

	m1 := New(stubRun(&atomic.Int64{}, nil), Options{TTL: time.Minute, Now: now, Journal: newJournal(t, dir)})
	v1, _, _ := m1.Submit(validSpec(1))
	v2, _, _ := m1.Submit(validSpec(2))
	waitState(t, m1, v1.ID, StateDone)
	waitState(t, m1, v2.ID, StateDone)
	m1.Close()
	if names := dirNames(t, dir); len(names) != 4 {
		t.Fatalf("before restart the state dir holds %v, want two spec and two finish files", names)
	}

	// Restart two hours later: both results are past TTL; neither comes
	// back, and their files are gone.
	clock = clock.Add(2 * time.Hour)
	m2 := New(stubRun(&atomic.Int64{}, nil), Options{TTL: time.Minute, Now: now, Journal: newJournal(t, dir)})
	defer m2.Close()
	if restored, requeued := m2.RecoveryStats(); restored != 0 || requeued != 0 {
		t.Fatalf("recovery stats = (%d, %d), want (0, 0)", restored, requeued)
	}
	if _, ok := m2.Get(v1.ID); ok {
		t.Fatal("expired job must not be restored")
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("expired jobs' files not deleted: %v", names)
	}
	// New ids continue past the restored sequence — no id reuse.
	v3, _, err := m2.Submit(validSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if v3.ID <= v2.ID {
		t.Fatalf("id %s reused (last pre-crash id %s)", v3.ID, v2.ID)
	}
}

// TestEvictionPreservesKeptBytes: TTL eviction deletes the expired job's two
// files and leaves the surviving job's files byte-for-byte.
func TestEvictionPreservesKeptBytes(t *testing.T) {
	dir := t.TempDir()
	clock := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	now := func() time.Time { return clock }
	m := New(stubRun(&atomic.Int64{}, nil), Options{TTL: time.Minute, Now: now, Journal: newJournal(t, dir)})
	defer m.Close()
	v1, _, _ := m.Submit(validSpec(1))
	waitState(t, m, v1.ID, StateDone)
	clock = clock.Add(50 * time.Second)
	v2, _, _ := m.Submit(validSpec(2))
	waitState(t, m, v2.ID, StateDone)
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	keptSpec, keptDone := read(v2.ID+specSuffix), read(v2.ID+doneSuffix)

	clock = clock.Add(30 * time.Second) // v1 is now past the TTL, v2 is not
	m.EvictExpired()
	if _, ok := m.Get(v1.ID); ok {
		t.Fatal("expired job still served")
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Fatalf("state dir after eviction holds %v, want only %s's two files", names, v2.ID)
	}
	if !bytes.Equal(read(v2.ID+specSuffix), keptSpec) || !bytes.Equal(read(v2.ID+doneSuffix), keptDone) {
		t.Fatal("eviction changed the surviving job's files")
	}
}

// TestRecoverySweepsTornWrites: a crash mid-write leaves only a temp file,
// never a partial state file. Restart removes it and creates no job from it.
func TestRecoverySweepsTornWrites(t *testing.T) {
	dir := t.TempDir()
	m1 := New(stubRun(&atomic.Int64{}, nil), Options{Journal: newJournal(t, dir)})
	v, _, _ := m1.Submit(validSpec(1))
	waitState(t, m1, v.ID, StateDone)
	m1.Close()
	writeFile(t, dir, "j-000002.spec.json.tmp4242", `{"id":"j-000002","spec":{"kind":"guardband","benchmark":"sha","ambient_c":25}}`)

	m2 := New(stubRun(&atomic.Int64{}, nil), Options{Journal: newJournal(t, dir)})
	defer m2.Close()
	if restored, requeued := m2.RecoveryStats(); restored != 1 || requeued != 0 {
		t.Fatalf("recovery stats = (%d, %d), want (1, 0)", restored, requeued)
	}
	if got := m2.ListState(""); len(got) != 1 || got[0].ID != v.ID {
		t.Fatalf("restored jobs = %+v, want only %s", got, v.ID)
	}
	want := []string{v.ID + doneSuffix, v.ID + specSuffix}
	if names := dirNames(t, dir); strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("state dir holds %v, want %v", names, want)
	}
}
