package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
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
	// Simulate the crash: no Drain, no graceful finish — the journal is all
	// that survives. (Close would journal cancellations; a SIGKILL does
	// not, so bypass it and just abandon the manager's goroutines.)
	m1.journal.Sync()

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
	// Unblock the abandoned first manager so its goroutines exit.
	close(block)

	// The recovered jobs' histories carry the recovery marker.
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
}

// TestRecoveryEvictsExpiredAndCompacts: terminal jobs past the TTL at
// restart are not restored, and the journal compacts down to nothing.
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

	// Restart two hours later: both results are past TTL; neither comes
	// back, and the journal compacts down to nothing.
	clock = clock.Add(2 * time.Hour)
	m2 := New(stubRun(&atomic.Int64{}, nil), Options{TTL: time.Minute, Now: now, Journal: newJournal(t, dir)})
	defer m2.Close()
	if restored, requeued := m2.RecoveryStats(); restored != 0 || requeued != 0 {
		t.Fatalf("recovery stats = (%d, %d), want (0, 0)", restored, requeued)
	}
	if _, ok := m2.Get(v1.ID); ok {
		t.Fatal("expired job must not be restored")
	}
	data, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimSpace(data)) != 0 {
		t.Fatalf("journal not compacted after expiry:\n%s", data)
	}
	// New ids continue past the replayed sequence — no id reuse.
	v3, _, err := m2.Submit(validSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if v3.ID <= v2.ID {
		t.Fatalf("id %s reused (last pre-crash id %s)", v3.ID, v2.ID)
	}
}

// TestRecoveryTornTailCompacted: a journal with a torn final record replays
// what survived and is compacted clean at startup.
func TestRecoveryTornTailCompacted(t *testing.T) {
	dir := t.TempDir()
	m1 := New(stubRun(&atomic.Int64{}, nil), Options{Journal: newJournal(t, dir)})
	v, _, _ := m1.Submit(validSpec(1))
	waitState(t, m1, v.ID, StateDone)
	m1.Close()
	appendLines(t, JournalPath(dir), `{"kind":"state","id":"j-0000`) // torn tail

	m2 := New(stubRun(&atomic.Int64{}, nil), Options{Journal: newJournal(t, dir)})
	defer m2.Close()
	if _, ok := m2.Get(v.ID); !ok {
		t.Fatal("job before the tear must be restored")
	}
	recs, damaged, err := ReadJournal(JournalPath(dir))
	if err != nil || damaged {
		t.Fatalf("startup did not compact the tear: damaged=%t err=%v (%d recs)", damaged, err, len(recs))
	}
}

// TestJournalPersistsAttemptCounts: a job killed mid-run resumes with its
// attempt count, so recovery re-runs are counted, not reset.
func TestJournalPersistsAttemptCounts(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	defer close(block)
	m1 := New(stubRun(&atomic.Int64{}, block), Options{Journal: newJournal(t, dir)})
	v, _, _ := m1.Submit(validSpec(1))
	waitState(t, m1, v.ID, StateRunning)
	m1.journal.Sync() // crash here: attempt 1 journaled, m1 abandoned

	m2 := New(stubRun(&atomic.Int64{}, block), Options{Journal: newJournal(t, dir)})
	defer m2.Close()
	// The requeued job starts its next attempt as number 2: the journaled
	// attempt count carried over the restart.
	got := waitState(t, m2, v.ID, StateRunning)
	if got.Attempts != 2 || !got.Recovered {
		t.Fatalf("replayed job = %+v, want attempts=2 recovered", got)
	}
}
