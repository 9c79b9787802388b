package server

// recovery_test.go covers the serving-layer view of durability: bad specs
// rejected at admission, and a restarted server serving a journaled result
// byte-identically.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"tafpga/internal/jobs"
	"tafpga/internal/obs"
)

// readBody slurps one HTTP GET body.
func readBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestValidationFailsFastOverHTTP: a bad spec is rejected at admission with
// a 400 — never queued, never run.
func TestValidationFailsFastOverHTTP(t *testing.T) {
	var runs atomic.Int64
	_, _, ts := testServer(t, stubRun(&runs, nil), jobs.Options{})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"guardband","benchmark":"no-such-benchmark","ambient_c":25}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status = %d, want 400", resp.StatusCode)
	}
	if runs.Load() != 0 {
		t.Fatalf("bad spec ran %d times", runs.Load())
	}
}

// TestRestartServesJournaledResultByteIdentical: a server restarted over
// the same state dir serves the same /v1/jobs/{id} body, byte for byte,
// without re-running the job.
func TestRestartServesJournaledResultByteIdentical(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64

	openJournal := func() *jobs.Journal {
		j, err := jobs.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	j1 := openJournal()
	m1 := jobs.New(stubRun(&runs, nil), jobs.Options{Journal: j1, Registry: obs.NewRegistry()})
	ts1 := httptest.NewServer(New(m1, obs.NewRegistry()).Handler())
	_, sr := postJob(t, ts1, `{"kind":"guardband","benchmark":"sha","ambient_c":25}`)
	waitHTTPState(t, ts1, sr.ID, jobs.StateDone)
	_, before := readBody(t, ts1.URL+"/v1/jobs/"+sr.ID)
	ts1.Close()
	m1.Close()
	j1.Close()

	j2 := openJournal()
	defer j2.Close()
	reg2 := obs.NewRegistry()
	m2 := jobs.New(stubRun(&runs, nil), jobs.Options{Journal: j2, Registry: reg2})
	defer m2.Close()
	ts2 := httptest.NewServer(New(m2, reg2).Handler())
	defer ts2.Close()

	code, after := readBody(t, ts2.URL+"/v1/jobs/"+sr.ID)
	if code != http.StatusOK {
		t.Fatalf("restored job status = %d", code)
	}
	if after != before {
		t.Fatalf("restored body differs:\nbefore: %s\nafter:  %s", before, after)
	}
	if runs.Load() != 1 {
		t.Fatalf("restore must not recompute: runs = %d", runs.Load())
	}
	code, metrics := readBody(t, ts2.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	if !strings.Contains(metrics, "tafpgad_jobs_restored_total 1") {
		t.Fatalf("metrics missing restored count:\n%s", metrics)
	}
}
