package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// retryEraJournal is a journal recorded by a daemon that still retried
// transient failures: one sha guardband job whose first two attempts hit an
// injected fault, each followed by a "retry" event carrying backoff_ms,
// before attempt 3 finished.
const retryEraJournal = "testdata/retry_era_journal.ndjson"

// retryEraNow is shortly after the recorded job finished, so the default
// TTL keeps it.
var retryEraNow = time.Date(2026, 10, 17, 7, 54, 0, 0, time.UTC)

// stateDirWith returns a fresh state dir whose journal holds data.
func stateDirWith(t *testing.T, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(JournalPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayRetryEraJournal: a journal written before retries were removed
// still replays — the finished job comes back done with its result bytes
// and attempt count, and its old retry events ride along in the history.
func TestReplayRetryEraJournal(t *testing.T) {
	data, err := os.ReadFile(retryEraJournal)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "retry_era_result.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := stateDirWith(t, data)

	var runs atomic.Int64
	m := New(stubRun(&runs, make(chan struct{})), Options{Journal: newJournal(t, dir), Now: func() time.Time { return retryEraNow }})
	defer m.Close()
	if restored, requeued := m.RecoveryStats(); restored != 1 || requeued != 0 {
		t.Fatalf("recovery stats = (%d, %d), want (1, 0)", restored, requeued)
	}
	v, ok := m.Get("j-000001")
	if !ok {
		t.Fatal("retry-era job not restored")
	}
	if v.State != StateDone || v.Attempts != 3 || v.Recovered {
		t.Fatalf("restored view = %+v, want done with attempts 3", v)
	}
	if got := resultJSON(t, v); !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Fatalf("restored result\n%s\nwant\n%s", got, want)
	}
	if runs.Load() != 0 {
		t.Fatalf("restore must not recompute: runs = %d", runs.Load())
	}

	history, _, cancel, err := m.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	retries := 0
	for _, e := range history {
		if e.Type == "retry" {
			retries++
		}
	}
	if retries != 2 || history[len(history)-1].State != StateDone {
		t.Fatalf("history has %d retry events, last %+v; want 2 and done", retries, history[len(history)-1])
	}
}

// FuzzJournalReplay feeds arbitrary bytes to journal replay: neither
// ReadJournal nor New may panic, and every restored job is terminal or
// requeued (queued, or already claimed by the single worker). Plain go test
// runs only the seeds.
func FuzzJournalReplay(f *testing.F) {
	data, err := os.ReadFile(retryEraJournal)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// Round trip, torn tail, and unknown kind, as in the journal tests.
	f.Add([]byte(`{"kind":"spec","id":"j-000001","spec":{"kind":"guardband","benchmark":"sha","ambient_c":21},"created":"2026-08-06T12:00:00Z"}
{"kind":"event","id":"j-000001","event":{"seq":1,"type":"state","state":"queued"}}
{"kind":"state","id":"j-000001","state":"running","at":"2026-08-06T12:00:00Z","attempt":1}
{"kind":"state","id":"j-000001","state":"done","at":"2026-08-06T12:00:01Z","result":{"x":1}}
`))
	f.Add([]byte(`{"kind":"spec","id":"j-000001","spec":{"kind":"guardband","benchmark":"sha","ambient_c":25}}
{"kind":"state","id":"j-000001","state":"running","attempt":1}
{"kind":"state","id":"j-000001","state":"done","result":{"x":`))
	f.Add([]byte(`{"kind":"spec","id":"j-000001","spec":{"kind":"guardband","benchmark":"sha","ambient_c":25}}
{"kind":"checkpoint","id":"j-000001","data":"from-the-future"}
{"kind":"state","id":"j-000001","state":"running","attempt":1}
`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := stateDirWith(t, data)
		if _, _, err := ReadJournal(JournalPath(dir)); err != nil {
			t.Fatalf("ReadJournal: %v", err)
		}
		m := New(stubRun(&atomic.Int64{}, make(chan struct{})), Options{
			Workers: 1,
			Journal: newJournal(t, dir),
			Now:     func() time.Time { return retryEraNow },
			TTL:     100 * 365 * 24 * time.Hour,
		})
		defer m.Close()
		running := 0
		for _, v := range m.List() {
			switch {
			case v.State.Terminal(), v.State == StateQueued:
			case v.State == StateRunning && v.Recovered:
				running++
			default:
				t.Fatalf("restored job %s in state %q (recovered %t)", v.ID, v.State, v.Recovered)
			}
		}
		if running > 1 {
			t.Fatalf("%d jobs running on one worker", running)
		}
	})
}
