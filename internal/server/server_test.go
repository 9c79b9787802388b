package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tafpga/internal/experiments"
	"tafpga/internal/jobs"
	"tafpga/internal/obs"
)

// testServer wires a manager over a controllable stub RunFunc.
func testServer(t *testing.T, run jobs.RunFunc, o jobs.Options) (*Server, *jobs.Manager, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	o.Registry = reg
	m := jobs.New(run, o)
	t.Cleanup(m.Close)
	s := New(m, reg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, m, ts
}

// stubRun counts invocations and, when release is non-nil, blocks until it
// closes or the job is cancelled.
func stubRun(runs *atomic.Int64, release <-chan struct{}) jobs.RunFunc {
	return func(ctx context.Context, spec jobs.Spec, emit func(jobs.Event)) (any, error) {
		if runs != nil {
			runs.Add(1)
		}
		emit(jobs.Event{Benchmark: spec.Benchmark, Iteration: 1, FmaxMHz: 123.5})
		if release != nil {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, fmt.Errorf("stub: %w", ctx.Err())
			}
		}
		return map[string]any{"ambient_c": spec.AmbientC}, nil
	}
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, submitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return resp, sr
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, jobs.View) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobs.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	return resp.StatusCode, v
}

func waitHTTPState(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobs.View {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, v := getJob(t, ts, id); v.State == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, v := getJob(t, ts, id)
	t.Fatalf("job %s: state %s, want %s", id, v.State, want)
	return v
}

func TestSubmitGetLifecycle(t *testing.T) {
	_, _, ts := testServer(t, stubRun(nil, nil), jobs.Options{})
	resp, sr := postJob(t, ts, `{"kind":"guardband","benchmark":"sha","ambient_c":25}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh submit = %d, want 202", resp.StatusCode)
	}
	if sr.Deduped || sr.ID == "" {
		t.Fatalf("fresh submit must not be deduped and must carry an id: %+v", sr)
	}
	v := waitHTTPState(t, ts, sr.ID, jobs.StateDone)
	if v.Result == nil {
		t.Fatal("done job must expose its result")
	}
	// The list endpoint elides results but shows the job.
	resp2, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list []jobs.View
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sr.ID || list[0].Result != nil {
		t.Fatalf("list = %+v", list)
	}
}

func TestErrorStatuses(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, _, ts := testServer(t, stubRun(nil, release), jobs.Options{Workers: 1, MaxQueue: 1})

	if resp, _ := postJob(t, ts, `{"kind":"guardband","benchmark":"nope","ambient_c":25}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown benchmark = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts, `{"kind":"guardband","benchmark":"sha","bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", resp.StatusCode)
	}
	if code, _ := getJob(t, ts, "j-999999"); code != http.StatusNotFound {
		t.Fatalf("missing job = %d, want 404", code)
	}

	// Fill the worker and the queue, then overflow.
	_, first := postJob(t, ts, `{"kind":"guardband","benchmark":"sha","ambient_c":25}`)
	waitHTTPState(t, ts, first.ID, jobs.StateRunning)
	postJob(t, ts, `{"kind":"guardband","benchmark":"sha","ambient_c":26}`)
	if resp, _ := postJob(t, ts, `{"kind":"guardband","benchmark":"sha","ambient_c":27}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d, want 429", resp.StatusCode)
	}
}

func TestCancelStatuses(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, _, ts := testServer(t, stubRun(nil, release), jobs.Options{Workers: 1})
	_, sr := postJob(t, ts, `{"kind":"guardband","benchmark":"sha","ambient_c":25}`)
	waitHTTPState(t, ts, sr.ID, jobs.StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running = %d, want 200", resp.StatusCode)
	}
	v := waitHTTPState(t, ts, sr.ID, jobs.StateCancelled)
	if v.Error == "" {
		t.Fatal("cancelled job must carry an error")
	}
	// Cancelling again conflicts; cancelling a stranger 404s.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished = %d, want 409", resp.StatusCode)
	}
	req404, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j-999999", nil)
	resp, err = http.DefaultClient.Do(req404)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel missing = %d, want 404", resp.StatusCode)
	}
}

// TestDedupObservableViaMetrics is the acceptance scenario: two concurrent
// identical submissions produce one underlying computation, visible both in
// the shared job ID and in the /metrics counters.
func TestDedupObservableViaMetrics(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	_, _, ts := testServer(t, stubRun(&runs, release), jobs.Options{Workers: 1})

	const body = `{"kind":"guardband","benchmark":"sha","ambient_c":25}`
	var mu sync.Mutex
	var srs []submitResponse
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sr := postJob(t, ts, body)
			mu.Lock()
			srs = append(srs, sr)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if srs[0].ID != srs[1].ID {
		t.Fatalf("concurrent identical submissions must share a job: %s vs %s", srs[0].ID, srs[1].ID)
	}
	if srs[0].Deduped == srs[1].Deduped {
		t.Fatalf("exactly one submission is fresh: %+v", srs)
	}
	close(release)
	waitHTTPState(t, ts, srs[0].ID, jobs.StateDone)
	if runs.Load() != 1 {
		t.Fatalf("one computation for two submissions, got %d", runs.Load())
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := buf.String()
	for _, want := range []string{
		"tafpgad_jobs_submitted_total 2",
		"tafpgad_jobs_deduped_total 1",
		"tafpgad_jobs_completed_total 1",
		"# TYPE tafpgad_job_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

func TestEventsStreamNDJSON(t *testing.T) {
	release := make(chan struct{})
	_, _, ts := testServer(t, stubRun(nil, release), jobs.Options{Workers: 1})
	_, sr := postJob(t, ts, `{"kind":"guardband","benchmark":"sha","ambient_c":25}`)
	waitHTTPState(t, ts, sr.ID, jobs.StateRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	var events []jobs.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("want queued, running, progress, done events, got %+v", events)
	}
	for i, e := range events {
		if e.Seq != i+1 { // seqs are dense from 1
			t.Fatalf("event %d has seq %d; the stream must be dense", i, e.Seq)
		}
	}
	last := events[len(events)-1]
	if last.Type != jobs.EventState || last.State != jobs.StateDone {
		t.Fatalf("stream must end on the terminal event, got %+v", last)
	}
	// A subscription opened after completion replays history and closes.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var replay bytes.Buffer
	replay.ReadFrom(resp2.Body)
	if got := strings.Count(replay.String(), "\n"); got != len(events) {
		t.Fatalf("replay has %d lines, want %d", got, len(events))
	}
}

func TestHealthAndReady(t *testing.T) {
	s, _, ts := testServer(t, stubRun(nil, nil), jobs.Options{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if get("/healthz") != http.StatusOK {
		t.Fatal("healthz must always answer 200")
	}
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("readyz must be 503 before warmup")
	}
	s.SetReady(true)
	if get("/readyz") != http.StatusOK {
		t.Fatal("readyz must be 200 once warm")
	}
	s.SetDraining(true)
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("readyz must be 503 while draining")
	}
}

// TestServerResultMatchesDirectRun is the bit-identical acceptance check:
// a guardband run served over HTTP must marshal to exactly the JSON of the
// same run performed directly through experiments.Context, byte for byte.
func TestServerResultMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full guardband flow in -short mode")
	}
	cfg := jobs.RunnerConfig{Scale: 1.0 / 64, ChannelTracks: 104, PlaceEffort: 0.3}
	runner := jobs.NewRunner(cfg)
	reg := obs.NewRegistry()
	m := jobs.New(runner.Run, jobs.Options{Workers: 1, Registry: reg})
	defer m.Close()
	ts := httptest.NewServer(New(m, reg).Handler())
	defer ts.Close()

	_, sr := postJob(t, ts, `{"kind":"guardband","benchmark":"sha","ambient_c":25}`)
	waitLong := func(id string) json.RawMessage {
		deadline := time.Now().Add(10 * time.Minute)
		for time.Now().Before(deadline) {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var v struct {
				State  jobs.State      `json:"state"`
				Error  string          `json:"error"`
				Result json.RawMessage `json:"result"`
			}
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			switch v.State {
			case jobs.StateDone:
				return v.Result
			case jobs.StateFailed, jobs.StateCancelled:
				t.Fatalf("job ended %s: %s", v.State, v.Error)
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Fatal("job did not finish")
		return nil
	}
	served := waitLong(sr.ID)

	// The same computation through the batch path, with its own caches.
	c := experiments.NewContext(cfg.Scale)
	c.ChannelTracks = cfg.ChannelTracks
	c.PlaceEffort = cfg.PlaceEffort
	rs, err := c.GuardbandSweep("sha", []float64{25})
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock kernel accounting is telemetry, not a result: zero it on
	// both sides, then demand byte equality of everything else (JSON
	// round-trips float64 exactly, so this is a bit-identical check).
	var got experiments.BenchResult
	if err := json.Unmarshal(served, &got); err != nil {
		t.Fatalf("served result is not a BenchResult: %v", err)
	}
	want := rs[0]
	got.Stats.STANs, got.Stats.PowerNs, got.Stats.ThermalNs = 0, 0, 0
	want.Stats.STANs, want.Stats.PowerNs, want.Stats.ThermalNs = 0, 0, 0
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("served result differs from direct run:\nserved: %s\ndirect: %s", gotJSON, wantJSON)
	}
}

func listJobs(t *testing.T, ts *httptest.Server, query string) (int, []jobs.View) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var views []jobs.View
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, views
}

func TestListStateFilter(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	_, _, ts := testServer(t, stubRun(&runs, release), jobs.Options{Workers: 1})

	_, running := postJob(t, ts, `{"kind":"guardband","benchmark":"sha","ambient_c":25}`)
	waitHTTPState(t, ts, running.ID, jobs.StateRunning)
	_, queued := postJob(t, ts, `{"kind":"guardband","benchmark":"sha","ambient_c":30}`)

	if code, views := listJobs(t, ts, "?state=running"); code != 200 || len(views) != 1 || views[0].ID != running.ID {
		t.Fatalf("state=running → %d, %+v", code, views)
	}
	if code, views := listJobs(t, ts, "?state=queued"); code != 200 || len(views) != 1 || views[0].ID != queued.ID {
		t.Fatalf("state=queued → %d, %+v", code, views)
	}
	if code, views := listJobs(t, ts, "?state=done"); code != 200 || len(views) != 0 {
		t.Fatalf("state=done before completion → %d, %+v", code, views)
	}
	if code, views := listJobs(t, ts, ""); code != 200 || len(views) != 2 {
		t.Fatalf("unfiltered list → %d, %+v", code, views)
	}
	if code, _ := listJobs(t, ts, "?state=bogus"); code != http.StatusBadRequest {
		t.Fatalf("state=bogus → %d, want 400", code)
	}

	close(release)
	waitHTTPState(t, ts, running.ID, jobs.StateDone)
	waitHTTPState(t, ts, queued.ID, jobs.StateDone)
	if code, views := listJobs(t, ts, "?state=done"); code != 200 || len(views) != 2 {
		t.Fatalf("state=done after completion → %d, %+v", code, views)
	}
}
