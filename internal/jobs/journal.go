package jobs

// journal.go is the durability layer: a state directory holding at most two
// files per job. DIR/<id>.spec.json records that the job was admitted;
// DIR/<id>.done.json records that it finished, with its result as the exact
// bytes it was served with and its event history. Each file is written to a
// temp file, fsync'd, renamed into place and made durable by an fsync of
// DIR, so it is whole or absent. Files are named by job ID, not by the
// spec's key: finished jobs do not dedup, so one key can name several jobs.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Suffixes of the two per-job state files.
const (
	specSuffix = ".spec.json"
	doneSuffix = ".done.json"
)

// specRecord is the content of DIR/<id>.spec.json.
type specRecord struct {
	ID      string    `json:"id"`
	Spec    Spec      `json:"spec"`
	Created time.Time `json:"created"`
}

// doneRecord is the content of DIR/<id>.done.json: the part of a finished
// job's view that its spec file does not hold, plus its event history.
type doneRecord struct {
	ID        string          `json:"id"`
	State     State           `json:"state"`
	Started   time.Time       `json:"started"`
	Finished  time.Time       `json:"finished"`
	Recovered bool            `json:"recovered,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	// Events is the []Event history, marshaled once at finish; the job
	// reads it back from here when a client asks for it.
	Events json.RawMessage `json:"events"`
}

// Journal is a job state directory. It holds no open file between writes.
type Journal struct {
	dir string
}

// OpenJournal creates the state directory if needed. A directory that still
// holds the write-ahead log of an older daemon, journal.ndjson, is an error:
// that format is not read, and starting without its jobs would drop them.
func OpenJournal(stateDir string) (*Journal, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: state dir: %w", err)
	}
	old := filepath.Join(stateDir, "journal.ndjson")
	if _, err := os.Stat(old); err == nil {
		return nil, fmt.Errorf("jobs: %s is a journal in a format no longer read; move it out of the state dir", old)
	}
	return &Journal{dir: stateDir}, nil
}

// Close releases nothing: every write opens and closes its own files.
func (j *Journal) Close() error { return nil }

// write stores v as DIR/name: temp file, fsync, rename, fsync of DIR. The
// file is durable when write returns.
func (j *Journal) write(name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jobs: marshal %s: %w", name, err)
	}
	f, err := os.CreateTemp(j.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("jobs: write %s: %w", name, err)
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(j.dir, name))
	}
	if err == nil {
		err = syncDir(j.dir)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("jobs: write %s: %w", name, err)
	}
	return nil
}

// syncDir makes the renames into dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// remove deletes a finished job's files, spec first: a crash between the
// two deletions leaves an orphan finish file, which load removes, never a
// spec file that would requeue an expired job. DIR is not fsync'd; a
// deletion lost in a crash is redone by the next restart's TTL check.
func (j *Journal) remove(id string) error {
	if err := os.Remove(filepath.Join(j.dir, id+specSuffix)); err != nil {
		return err
	}
	return os.Remove(filepath.Join(j.dir, id+doneSuffix))
}

// load lists DIR once and returns the jobs it describes in ID order:
// finished ones with their stored views and histories, unfinished ones in
// no state yet. maxID is the highest job number that names a spec file, bad
// ones included, so a new job never takes the name of a file still there.
// load removes temp files left by an interrupted write and finish files
// whose spec file is gone (an eviction cut short). A state file that fails
// to parse, names another job, or holds an invalid spec or a non-terminal
// state is skipped and counted in bad; a job whose finish file is bad loads
// as unfinished, and a directory that cannot be listed counts as one bad
// file. Files of any other name are left alone.
func (j *Journal) load() (jobs []*job, maxID, bad int) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, 0, 1
	}
	present := map[string]bool{}
	for _, e := range entries {
		present[e.Name()] = true
	}
	// ReadDir sorts by name, and job IDs are zero-padded: ID order.
	for _, e := range entries {
		id, isSpec := strings.CutSuffix(e.Name(), specSuffix)
		if !isSpec {
			id, isDone := strings.CutSuffix(e.Name(), doneSuffix)
			if strings.Contains(e.Name(), ".tmp") || isDone && !present[id+specSuffix] {
				os.Remove(filepath.Join(j.dir, e.Name()))
			}
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(id, "j-"))
		if err == nil {
			maxID = max(maxID, n)
		}
		var sr specRecord
		if err != nil || !readJSON(filepath.Join(j.dir, e.Name()), &sr) || sr.ID != id || sr.Spec.Validate() != nil {
			bad++
			continue
		}
		jb := &job{id: id, spec: sr.Spec, created: sr.Created}
		var d doneRecord
		switch {
		case !present[id+doneSuffix]:
		case readJSON(filepath.Join(j.dir, id+doneSuffix), &d) && d.ID == id && d.State.Terminal() && decodesEvents(d.Events):
			jb.state, jb.started, jb.finished = d.State, d.Started, d.Finished
			jb.recovered, jb.errMsg = d.Recovered, d.Error
			if d.Result != nil {
				jb.result = d.Result
			}
		default:
			bad++
		}
		if !jb.state.Terminal() {
			jb.key = sr.Spec.Key()
		}
		jobs = append(jobs, jb)
	}
	return jobs, maxID, bad
}

// decodesEvents reports whether a finish file's events field is absent or
// decodes as an event history.
func decodesEvents(b json.RawMessage) bool {
	var events []Event
	return b == nil || json.Unmarshal(b, &events) == nil
}

// readEvents reads a finished job's event history back from its finish
// file.
func (j *Journal) readEvents(id string) ([]Event, error) {
	b, err := os.ReadFile(filepath.Join(j.dir, id+doneSuffix))
	if err != nil {
		return nil, err
	}
	var d struct {
		Events []Event `json:"events"`
	}
	err = json.Unmarshal(b, &d)
	return d.Events, err
}

// readJSON decodes the file at path into v, reporting success.
func readJSON(path string, v any) bool {
	b, err := os.ReadFile(path)
	return err == nil && json.Unmarshal(b, v) == nil
}
