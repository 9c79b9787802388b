package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// writeFile writes one raw file into a state dir (crash-shape fixtures).
func writeFile(t *testing.T, dir, name, data string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirNames lists a state dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// Spec and finish records written through the journal load back whole.
func TestJournalAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(t, dir)
	spec := validSpec(1)
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for _, id := range []string{"j-000001", "j-000002"} {
		if err := j.write(id+specSuffix, specRecord{ID: id, Spec: spec, Created: now}); err != nil {
			t.Fatal(err)
		}
	}
	done := doneRecord{
		ID: "j-000001", State: StateDone, Started: now, Finished: now.Add(time.Second),
		Result: json.RawMessage(`{"x":1}`),
		Events: json.RawMessage(`[{"seq":1,"type":"state","state":"queued"},{"seq":2,"type":"state","state":"done"}]`),
	}
	if err := j.write("j-000001"+doneSuffix, done); err != nil {
		t.Fatal(err)
	}
	got, maxID, bad := j.load()
	if bad != 0 || maxID != 2 {
		t.Fatalf("load: maxID=%d bad=%d", maxID, bad)
	}
	if len(got) != 2 || got[0].id != "j-000001" || got[1].id != "j-000002" {
		t.Fatalf("loaded %+v, want j-000001 and j-000002 in order", got)
	}
	// Only an unfinished job keeps its dedup key.
	if got[0].key != "" || got[1].key != spec.Key() || !got[0].created.Equal(now) {
		t.Fatalf("spec record did not round-trip: %+v", got[0])
	}
	d := got[0]
	result, _ := d.result.(json.RawMessage)
	// A finished job's history stays in its finish file.
	events, err := j.readEvents(d.id)
	if err != nil || d.history != nil || d.events != nil {
		t.Fatalf("history in memory %q %v, from the finish file %v (%v)", d.history, d.events, events, err)
	}
	if d.state != StateDone || !d.finished.Equal(now.Add(time.Second)) || string(result) != `{"x":1}` || len(events) != 2 {
		t.Fatalf("finish record did not round-trip: %+v", d)
	}
	if got[1].state != "" {
		t.Fatalf("unfinished job loaded in state %q", got[1].state)
	}
	if names := dirNames(t, dir); len(names) != 3 {
		t.Fatalf("state dir holds %v, want two spec files and one finish file", names)
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new")
	got, maxID, bad := newJournal(t, dir).load()
	if bad != 0 || maxID != 0 || len(got) != 0 {
		t.Fatalf("fresh state dir: jobs=%v maxID=%d bad=%d", got, maxID, bad)
	}
}

// A truncated or garbage state file is skipped and counted, never fatal.
// A job whose spec file is whole but whose finish file is not loads as
// unfinished, so the restart re-runs it; one whose spec file is damaged is
// not loaded, but its number still counts toward the next ID.
func TestJournalTruncatedFinalRecord(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "j-000001.spec.json", `{"id":"j-000001","spec":{"kind":"guardband","benchmark":"sha","ambient_c":25}}`)
	writeFile(t, dir, "j-000001.done.json", `{"id":"j-000001","state":"done","result":{"x":`)
	writeFile(t, dir, "j-000003.spec.json", `{"id":"j-0000`)
	got, maxID, bad := newJournal(t, dir).load()
	if bad != 2 || maxID != 3 {
		t.Fatalf("bad=%d maxID=%d, want 2 and 3", bad, maxID)
	}
	if len(got) != 1 || got[0].id != "j-000001" || got[0].state != "" {
		t.Fatalf("loaded %+v, want j-000001 unfinished", got)
	}
}

// Files of a name the daemon does not write are left alone and not counted.
func TestJournalUnknownKindSkipped(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "j-000001.spec.json", `{"id":"j-000001","spec":{"kind":"guardband","benchmark":"sha","ambient_c":25}}`)
	writeFile(t, dir, "j-000001.checkpoint.json", `{"data":"from-the-future"}`)
	writeFile(t, dir, "NOTES", "operator notes")
	got, _, bad := newJournal(t, dir).load()
	if bad != 0 || len(got) != 1 {
		t.Fatalf("jobs=%d bad=%d", len(got), bad)
	}
	if names := dirNames(t, dir); len(names) != 3 {
		t.Fatalf("state dir holds %v, want every file left in place", names)
	}
}

// A state dir holding an older daemon's write-ahead journal is refused, with
// an error that names the file.
func TestJournalRefusesOldJournal(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "journal.ndjson")
	writeFile(t, dir, "journal.ndjson", `{"kind":"spec","id":"j-000001"}`+"\n")
	j, err := OpenJournal(dir)
	if err == nil {
		j.Close()
		t.Fatal("OpenJournal accepted a dir holding journal.ndjson")
	}
	if !strings.Contains(err.Error(), old) || strings.Contains(err.Error(), "\n") {
		t.Fatalf("error %q must be one line naming %s", err, old)
	}
}

// FuzzStateDir writes fuzzed bytes as a spec file, a finish file and a temp
// file, under the job numbers specN and doneN (0 = no such file), and opens
// a manager over them: truncated, garbage, ID-mismatched and orphan files
// all arrive this way. Neither load nor New may panic; every restored job is
// terminal or requeued (queued, or already claimed by the single worker);
// and no temp file or orphan finish file survives the restore. Plain go test
// runs only the seeds.
func FuzzStateDir(f *testing.F) {
	const spec1 = `{"id":"j-000001","spec":{"kind":"guardband","benchmark":"sha","ambient_c":21},"created":"2026-08-06T12:00:00Z"}`
	const done1 = `{"id":"j-000001","state":"done","started":"2026-08-06T12:00:00Z","finished":"2026-08-06T12:00:01Z","result":{"x":1},"events":[{"seq":1,"type":"state","state":"queued"},{"seq":2,"type":"state","state":"done"}]}`
	f.Add(uint8(1), []byte(spec1), uint8(1), []byte(done1))         // finished job
	f.Add(uint8(1), []byte(spec1), uint8(1), []byte(done1[:40]))    // truncated finish file
	f.Add(uint8(2), []byte(spec1), uint8(2), []byte(done1))         // contents name another job
	f.Add(uint8(1), []byte(spec1), uint8(7), []byte(done1))         // orphan finish file
	f.Add(uint8(3), []byte("\x00garbage"), uint8(3), []byte("{}}")) // garbage

	f.Fuzz(func(t *testing.T, specN uint8, spec []byte, doneN uint8, done []byte) {
		dir := t.TempDir()
		if specN > 0 {
			writeFile(t, dir, jobName(specN)+specSuffix, string(spec))
		}
		if doneN > 0 {
			writeFile(t, dir, jobName(doneN)+doneSuffix, string(done))
		}
		writeFile(t, dir, jobName(doneN)+doneSuffix+".tmp123", string(done))

		m := New(stubRun(&atomic.Int64{}, make(chan struct{})), Options{
			Workers: 1,
			Journal: newJournal(t, dir),
			Now:     func() time.Time { return time.Date(2026, 10, 17, 8, 0, 0, 0, time.UTC) },
			TTL:     100 * 365 * 24 * time.Hour,
		})
		defer m.Close()
		running := 0
		for _, v := range m.ListState("") {
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
		for _, name := range dirNames(t, dir) {
			if strings.Contains(name, ".tmp") {
				t.Fatalf("temp file %s survived the restore", name)
			}
			if id, ok := strings.CutSuffix(name, doneSuffix); ok && id != jobName(specN) {
				t.Fatalf("orphan finish file %s survived the restore", name)
			}
		}
	})
}

// jobName renders job number n as its ID.
func jobName(n uint8) string { return fmt.Sprintf("j-%06d", n) }
