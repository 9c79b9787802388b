package main

// serve-warm: tafpgad as its own process with the journal on and serial
// settings, its flow cache filled in setup, driven by two closed-loop
// clients that each wait for a job's terminal state before submitting the
// next. A job's compute is the cache-hit rebuild (regenerate, activity,
// pack, cache key, restore, assemble) plus Algorithm 1, behind HTTP, the
// queue and the journal, so serving and cache-path changes show here.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"tafpga/internal/activity"
	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/experiments"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/hotspot"
	"tafpga/internal/jobs"
	"tafpga/internal/obs"
	"tafpga/internal/pack"
	"tafpga/internal/power"
	"tafpga/internal/sta"
	"tafpga/internal/techmodel"
)

const (
	serveClients    = 2
	serveJobTimeout = 60 * time.Second
	// serveIdentitySample is how many served results are re-run in process.
	serveIdentitySample = 6
)

var serveDesigns = []string{"sha", "or1200", "diffeq1", "ch_intrinsics", "blob_merge"}

// serveDeck is, per design, four guardband specs (one ambient from each
// quarter of 0–100 °C on a 0.5 °C grid) and one six-point sweep starting
// anywhere in 0–25 °C: 25 jobs, 80% guardband and 20% sweep. The grid is
// wide enough that few specs repeat within a run.
func serveDeck(r *rand.Rand) []jobs.Spec {
	var specs []jobs.Spec
	for _, d := range serveDesigns {
		for q := 0; q < 4; q++ {
			specs = append(specs, jobs.Spec{Kind: jobs.KindGuardband, Benchmark: d, AmbientC: 25*float64(q) + 0.5*float64(r.Intn(50))})
		}
		a0 := 0.5 * float64(r.Intn(51))
		sweep := jobs.Spec{Kind: jobs.KindSweep, Benchmark: d}
		for k := 0; k < 6; k++ {
			sweep.Ambients = append(sweep.Ambients, a0+15*float64(k))
		}
		specs = append(specs, sweep)
	}
	return shuffled(r, specs)
}

// jobView is the part of a served job view the client reads.
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// jobOutcome is one closed-loop job as the client saw it.
type jobOutcome struct {
	view    jobView
	submit  time.Duration // POST round trip
	latency time.Duration // POST start to terminal state observed
}

// runJob submits a spec, follows its event stream to the terminal state and
// reads the final view. A non-2xx submit, a job that ends in any state but
// done, or one that is still unfinished when ctx expires is an error.
func runJob(ctx context.Context, hc *http.Client, base string, spec jobs.Spec) (jobOutcome, error) {
	var out jobOutcome
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	var sub jobView
	if err := doJSON(hc, req, &sub); err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	out.submit = time.Since(t0)

	// The event stream ends when the job reaches a terminal state.
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		return out, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return out, fmt.Errorf("events %s: %w", sub.ID, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, fmt.Errorf("events %s: %w", sub.ID, err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+sub.ID, nil)
	if err != nil {
		return out, err
	}
	if err := doJSON(hc, req, &out.view); err != nil {
		return out, fmt.Errorf("get %s: %w", sub.ID, err)
	}
	out.latency = time.Since(t0)
	if out.view.State != string(jobs.StateDone) {
		return out, fmt.Errorf("job %s ended %s: %s", sub.ID, out.view.State, out.view.Error)
	}
	return out, nil
}

// doJSON sends a request and decodes a 2xx JSON answer into v.
func doJSON(hc *http.Client, req *http.Request, v any) error {
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, v)
}

// servedResult decodes a job's result into the type jobs.Runner returns
// for its kind.
func servedResult(spec jobs.Spec, raw json.RawMessage) (any, error) {
	if spec.Kind == jobs.KindSweep {
		var rs []experiments.BenchResult
		err := json.Unmarshal(raw, &rs)
		return rs, err
	}
	var r experiments.BenchResult
	err := json.Unmarshal(raw, &r)
	return r, err
}

// checkServed checks a served result: Algorithm 1 converged at every
// ambient and fmax is no slower than the worst-case clock at or below
// T_worst. It returns the gains.
func checkServed(spec jobs.Spec, v any) ([]float64, error) {
	var rs []experiments.BenchResult
	ambients := spec.Ambients
	switch r := v.(type) {
	case experiments.BenchResult:
		rs, ambients = []experiments.BenchResult{r}, []float64{spec.AmbientC}
	case []experiments.BenchResult:
		rs = r
	}
	if len(rs) != len(ambients) {
		return nil, fmt.Errorf("%d results for %d ambients", len(rs), len(ambients))
	}
	opts := guardband.DefaultOptions(0)
	var gains []float64
	for i, r := range rs {
		if !r.Converged {
			return nil, fmt.Errorf("%s at %g°C did not converge", r.Name, ambients[i])
		}
		// No tile exceeds the mean rise plus the spread.
		hot := ambients[i] + r.RiseC + r.SpreadC + opts.DeltaTC
		if err := checkBaseline(ambients[i], hot, r.FmaxMHz, r.BaselineMHz, opts.WorstCaseC); err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		gains = append(gains, r.GainPct)
	}
	return gains, nil
}

// daemon is a tafpgad child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	exit chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts tafpgad with every parallelism setting at 1, the
// journal under dir/state and the flow cache under dir/flowcache, and
// waits until it is ready.
func startDaemon(bin, dir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr,
		"-workers", "1", "-parallel", "1", "-route-workers", "1", "-sweep-batch", "1",
		"-retries", "1", "-state-dir", filepath.Join(dir, "state"), "-flowcache", filepath.Join(dir, "flowcache"))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, exit: make(chan error, 1)}
	go func() { d.exit <- cmd.Wait() }()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.exit:
			d.exit <- err
			d.stop()
			return nil, fmt.Errorf("tafpgad exited before ready: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("tafpgad not ready after 120 s")
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if it has not exited in
// 30 s, and waits for it.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exit:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exit
	}
	d.log.Close()
}

// scrape reads the daemon's counters.
func (d *daemon) scrape(hc *http.Client) (*obs.Scrape, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseScrape(resp.Body)
}

// served is one closed-loop job, keyed by its position in the stream.
type served struct {
	idx  int
	spec jobs.Spec
	out  jobOutcome
	res  any
	err  error
}

func runServeWarm(cfg config) (*report, error) {
	bin := filepath.Join(cfg.binDir, "tafpgad")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("serve-warm needs the tafpgad binary: %w", err)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(bin, dir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	tp := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp}

	// Fill the flow cache, then one untimed job of each kind.
	warm := []jobs.Spec{}
	for _, name := range serveDesigns {
		warm = append(warm, jobs.Spec{Kind: jobs.KindGuardband, Benchmark: name, AmbientC: 25})
	}
	warm = append(warm, jobs.Spec{Kind: jobs.KindSweep, Benchmark: "sha", Ambients: []float64{0, 50, 100}})
	for _, spec := range warm {
		ctx, cancel := context.WithTimeout(context.Background(), 5*serveJobTimeout)
		_, err := runJob(ctx, hc, d.base, spec)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	rep := &report{correct: true}
	setup := time.Since(processStart)

	before, err := d.scrape(hc)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	done, elapsed := closedLoop(hc, d.base, newStream(cfg.seed, "serve-warm", serveDeck), cfg.seconds)
	peakMB := peakRSSMB(d.cmd.Process.Pid)
	after, err := d.scrape(hc)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}

	var lat, gains, submit, wait, run []float64
	var dg digest
	deck := len(serveDesigns) * 5
	for i := range done {
		s := &done[i]
		rep.attempted++
		if s.err == nil {
			s.res, s.err = servedResult(s.spec, s.out.view.Result)
		}
		var g []float64
		if s.err == nil {
			g, s.err = checkServed(s.spec, s.res)
		}
		if s.idx < deck {
			dg.add(physics(s.res))
		}
		if s.err != nil {
			rep.failed++
			rep.note("failed job %d %+v: %v", s.idx, s.spec, s.err)
			continue
		}
		lat = append(lat, s.out.latency.Seconds())
		gains = append(gains, g...)
		submit = append(submit, s.out.submit.Seconds())
		v := s.out.view
		if v.Started != nil && v.Finished != nil {
			wait = append(wait, v.Started.Sub(v.Created).Seconds())
			run = append(run, v.Finished.Sub(*v.Started).Seconds())
		}
	}
	if err := checkIdentity(rep, cfg, dir, done); err != nil {
		return nil, err
	}
	counter := func(name string) float64 { return after.Sum(name) - before.Sum(name) }
	serveLayerValues := map[string]float64{
		"server.submit_s":      mean(submit),
		"jobs.queue_wait_s":    mean(wait),
		"jobs.run_s":           mean(run),
		"jobs.deduped":         counter("tafpgad_jobs_deduped_total"),
		"jobs.failed":          counter("tafpgad_jobs_failed_total"),
		"jobs.journal_records": counter("tafpgad_journal_records_total"),
	}
	rep.note("served: queue wait %.3f ms, run %.3f ms, submit %.3f ms per job; %g deduped, %g journal records",
		1e3*mean(wait), 1e3*mean(run), 1e3*mean(submit), serveLayerValues["jobs.deduped"], serveLayerValues["jobs.journal_records"])
	if cfg.trace {
		return traceServeWarm(cfg, rep, dir, done[:min(deck, len(done))], serveLayerValues)
	}
	return finishTimed(rep, "serve-warm", setup, elapsed, lat, 95, &dg, peakMB, gains, nil)
}

// closedLoop runs serveClients clients against the daemon for the given
// time. Each takes the next spec of the shared stream, submits it and waits
// for its terminal state before taking another. It returns every job in
// stream order and the wall time until the last one finished.
func closedLoop(hc *http.Client, base string, st *stream[jobs.Spec], seconds float64) ([]served, time.Duration) {
	var (
		mu   sync.Mutex
		n    int
		done []served
		wg   sync.WaitGroup
	)
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				mu.Lock()
				idx, spec := n, st.next()
				n++
				mu.Unlock()
				ctx, cancel := context.WithTimeout(context.Background(), serveJobTimeout)
				out, err := runJob(ctx, hc, base, spec)
				cancel()
				mu.Lock()
				done = append(done, served{idx: idx, spec: spec, out: out, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(done, func(i, j int) bool { return done[i].idx < done[j].idx })
	return done, elapsed
}

// checkIdentity re-runs a seeded sample of the served jobs through an
// in-process jobs.Runner configured like the daemon, over the daemon's
// on-disk flow cache, and asserts byte-identical physics.
func checkIdentity(rep *report, cfg config, dir string, done []served) error {
	r := rand.New(rand.NewSource(cfg.seed))
	var ok []served
	for _, s := range done {
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	runner := newServeRunner(dir)
	sample := min(serveIdentitySample, len(ok))
	for _, i := range r.Perm(len(ok))[:sample] {
		s := ok[i]
		v, err := runner.Run(context.Background(), s.spec, nil)
		if err != nil {
			return fmt.Errorf("identity: in-process run of job %d: %w", s.idx, err)
		}
		if !bytes.Equal(physics(v), physics(s.res)) {
			rep.correct = false
			rep.note("identity: served job %d %+v differs from the in-process jobs.Runner result", s.idx, s.spec)
		}
	}
	rep.note("identity: %d sampled served results re-run in process, compared byte for byte", sample)
	return nil
}

// newServeRunner is a jobs.Runner with the daemon's serial settings over
// the daemon's on-disk flow cache.
func newServeRunner(dir string) *jobs.Runner {
	return jobs.NewRunner(jobs.RunnerConfig{
		BenchWorkers: 1, RouteWorkers: 1, SweepBatch: 1,
		FlowCacheDir: filepath.Join(dir, "flowcache"),
	})
}

// traceServeWarm replays the first deck of served specs in process, once
// through jobs.Runner.Run and once rebuilt with spans, asserts both match
// the served results byte for byte, and reports the per-layer metrics.
func traceServeWarm(cfg config, rep *report, dir string, specs []served, serve map[string]float64) (*report, error) {
	runner := newServeRunner(dir)
	cache := flow.NewCache(filepath.Join(dir, "flowcache"))
	dev, err := coffe.SizeDevice(techmodel.Default22nm(), coffe.DefaultParams(), 25)
	if err != nil {
		return nil, err
	}
	// Load every design into both in-memory caches before timing.
	for _, name := range serveDesigns {
		spec := jobs.Spec{Kind: jobs.KindGuardband, Benchmark: name, AmbientC: 25}
		if _, err := runner.Run(context.Background(), spec, nil); err != nil {
			return nil, err
		}
		if _, err := serveTraced(newTracer(), cache, dev, spec); err != nil {
			return nil, err
		}
	}
	t := traceRun{tr: newTracer(), serve: serve}
	mismatches := 0
	for i, s := range specs {
		if s.err != nil {
			continue
		}
		var plain, traced any
		var perr, terr error
		runPlain := func() {
			t0 := time.Now()
			plain, perr = runner.Run(context.Background(), s.spec, nil)
			t.plain += time.Since(t0)
		}
		runTraced := func() {
			a0 := totalAllocMB()
			t0 := time.Now()
			traced, terr = serveTraced(t.tr, cache, dev, s.spec)
			t.traced += time.Since(t0)
			t.allocMB += totalAllocMB() - a0
		}
		if i%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		if err := errors.Join(perr, terr); err != nil {
			return nil, fmt.Errorf("replay of job %d: %w", s.idx, err)
		}
		t.ops++
		served := physics(s.res)
		if !bytes.Equal(physics(plain), served) || !bytes.Equal(physics(traced), served) {
			mismatches++
		}
	}
	if mismatches > 0 {
		rep.correct = false
		rep.note("identity: %d replayed jobs differ from the served results", mismatches)
	}
	rep.note("identity: %d served jobs replayed through jobs.Runner and rebuilt from the layers, compared byte for byte", t.ops)
	return finishTraced(rep, t, cfg.workDir)
}

// serveTraced is jobs.Runner.Run for a guardband or sweep spec, rebuilt
// with spans. The cache-hit rebuild is one flow.Implement call; to split it,
// its activity, pack and assembly stages are re-run outside the cache path
// and their times taken out of flow.cached_implement, which keeps the cache
// key, the restore and the grid.
func serveTraced(tr *tracer, cache *flow.Cache, dev *coffe.Device, spec jobs.Spec) (any, error) {
	defer tr.begin("op")()
	p, err := bench.ByName(spec.Benchmark)
	if err != nil {
		return nil, err
	}
	end := tr.begin("bench.generate")
	nl, err := bench.Generate(p.Scaled(bench.DefaultScale), bench.SeedFor(spec.Benchmark))
	end()
	if err != nil {
		return nil, err
	}
	opts := flow.DefaultOptions()
	opts.Seed = bench.SeedFor(spec.Benchmark)
	opts.PIDensity = p.PIDensity
	opts.Router.Workers = 1
	opts.Cache = cache

	t0 := time.Now()
	act := activity.Estimate(nl, opts.PIDensity)
	dAct := time.Since(t0)
	t0 = time.Now()
	_, err = pack.Pack(nl, dev.Arch.N, dev.Arch.ClusterInputs)
	dPack := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	im, err := flow.Implement(nl, dev, opts)
	dImpl := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	sta.New(nl, dev, im.Placed, im.Routed)
	pm := power.New(dev, nl, im.Placed, im.Routed, act)
	if _, err := hotspot.NewModel(im.Grid.W, im.Grid.H, pm.BasePowerUW(25)); err != nil {
		return nil, err
	}
	dAsm := time.Since(t0)
	tr.child("activity.estimate", dAct)
	tr.child("pack.pack", dPack)
	tr.child("flow.assemble", dAsm)
	tr.child("flow.cached_implement", max(0, dImpl-dAct-dPack-dAsm))
	// The re-run stages are the tracer's own work, not the job's.
	tr.child(apportionSpan, dAct+dPack+dAsm)

	ambients := spec.Ambients
	if spec.Kind == jobs.KindGuardband {
		ambients = []float64{spec.AmbientC}
	}
	var out []experiments.BenchResult
	var seed []float64
	for _, a := range ambients {
		opts := guardband.DefaultOptions(a)
		opts.ThermalSeed = seed
		res, err := runTraced(tr, im, opts)
		if err != nil {
			return nil, err
		}
		seed = res.SeedTemps
		out = append(out, experiments.BenchResult{
			Name: spec.Benchmark, GainPct: res.GainPct,
			FmaxMHz: res.FmaxMHz, BaselineMHz: res.BaselineMHz,
			Iterations: res.Iterations, RiseC: res.RiseC, SpreadC: res.SpreadC,
			Converged: res.Converged, Stats: res.Stats,
		})
	}
	if spec.Kind == jobs.KindGuardband {
		return out[0], nil
	}
	return out, nil
}
