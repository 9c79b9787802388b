// Command taload is an open-loop load generator for a tafpgad daemon. It
// submits a deterministic mixed stream of job specs at a fixed arrival
// rate (open loop: arrivals do not wait for completions, so queueing
// behaviour is measured honestly), waits for the daemon to drain, and
// reports throughput and latency quantiles computed from the daemon's own
// /metrics histograms — the numbers an operator's Prometheus would show,
// not a client-side stopwatch.
//
//	taload -url http://localhost:8080 -rate 4 -duration 30s -out bench.json
//
// Flags:
//
//	-url u       daemon endpoint: jobs go to -url/v1/jobs, metrics come
//	             from -url/metrics
//	-rate r      arrival rate in jobs/second (default 4)
//	-duration d  submission window (default 30s)
//	-seed n      seed of the deterministic spec stream (default 1)
//	-bench csv   benchmark pool for generated specs (default sha,diffeq1,ch_intrinsics)
//	-mix f       fraction of sweep (multi-ambient) specs in the stream (default 0.2)
//	-energy-mix f  fraction of min-energy (Vdd-bisection) specs in the
//	             stream (default 0.1); these exercise the voltage-probe
//	             path, which is hotter per job than a guardband point
//	-grid n      distinct ambient points per benchmark (default 512). Large
//	             grids make most specs unique (cold, CPU-bound jobs — a
//	             capacity benchmark); small grids repeat specs (dedup- and
//	             cache-dominated jobs — a serving-overhead benchmark)
//	-wait d      drain budget after the submission window (default 10m)
//	-out f       write the JSON report here (default stdout)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"tafpga/internal/jobs"
	"tafpga/internal/obs"
)

// report is the JSON taload emits.
type report struct {
	Target     string  `json:"target"`
	RatePerSec float64 `json:"rate_per_sec"`
	DurationS  float64 `json:"duration_s"`
	Seed       int64   `json:"seed"`

	Submitted   int `json:"submitted"`
	Accepted    int `json:"accepted"`
	Deduped     int `json:"deduped"`
	SubmitErrs  int `json:"submit_errors"`
	DrainedInMs int `json:"drained_in_ms"`

	JobsCompleted float64 `json:"jobs_completed"`
	JobsFailed    float64 `json:"jobs_failed"`
	WallS         float64 `json:"wall_s"`
	ThroughputPS  float64 `json:"throughput_jobs_per_s"`

	LatencyS struct {
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
		P99  float64 `json:"p99"`
		Mean float64 `json:"mean"`
	} `json:"latency_s"`

	// Batched-sweep activity, from the daemon's tafpgad_sweep_lanes
	// histogram (zero when it runs with a serial sweep engine).
	SweepBatches   float64 `json:"sweep_batches"`
	SweepMeanLanes float64 `json:"sweep_mean_lanes"`
}

func main() {
	url := flag.String("url", "http://localhost:8080", "daemon endpoint")
	rate := flag.Float64("rate", 4, "arrival rate, jobs/second (open loop)")
	duration := flag.Duration("duration", 30*time.Second, "submission window")
	seed := flag.Int64("seed", 1, "spec stream seed")
	benchCSV := flag.String("bench", "sha,diffeq1,ch_intrinsics", "benchmark pool")
	mix := flag.Float64("mix", 0.2, "fraction of sweep specs in the stream")
	energyMix := flag.Float64("energy-mix", 0.1, "fraction of min-energy specs in the stream")
	grid := flag.Int("grid", 512, "distinct ambient points per benchmark")
	wait := flag.Duration("wait", 10*time.Minute, "drain budget after the submission window")
	out := flag.String("out", "", "report path (empty = stdout)")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "taload: "+format+"\n", args...)
	}
	fail := func(format string, args ...any) {
		logf(format, args...)
		os.Exit(1)
	}

	metricsURL := strings.TrimSuffix(*url, "/") + "/metrics"
	benches := strings.Split(*benchCSV, ",")
	client := &http.Client{Timeout: 30 * time.Second}

	// Baseline scrape: counters and histograms are cumulative, so every
	// number in the report is a delta against this snapshot.
	base, err := scrape(client, metricsURL)
	if err != nil {
		fail("baseline scrape: %v", err)
	}

	rep := report{
		Target: *url, RatePerSec: *rate, DurationS: duration.Seconds(),
		Seed: *seed,
	}

	// Open-loop arrivals: a ticker fires at the configured rate regardless
	// of how the daemon is keeping up. The spec stream is a pure function of
	// the seed, so two runs against differently configured daemons submit
	// the same work in the same order.
	rng := rand.New(rand.NewSource(*seed))
	interval := time.Duration(float64(time.Second) / *rate)
	if interval <= 0 {
		fail("rate %g is not schedulable", *rate)
	}
	start := time.Now()
	deadline := start.Add(*duration)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for now := start; now.Before(deadline); now = <-ticker.C {
		spec := nextSpec(rng, benches, *mix, *energyMix, *grid)
		body, _ := json.Marshal(spec)
		rep.Submitted++
		resp, err := client.Post(*url+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			rep.SubmitErrs++
			continue
		}
		var sr struct {
			Deduped bool `json:"deduped"`
		}
		json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK && sr.Deduped:
			rep.Accepted++
			rep.Deduped++
		case resp.StatusCode < 400:
			rep.Accepted++
		default:
			rep.SubmitErrs++
		}
	}
	logf("submitted %d specs in %v (%d accepted, %d deduped, %d errors)",
		rep.Submitted, time.Since(start).Round(time.Millisecond), rep.Accepted, rep.Deduped, rep.SubmitErrs)

	// Drain: the daemon is idle when its queued and running gauges read
	// zero.
	drainStart := time.Now()
	drainDeadline := drainStart.Add(*wait)
	for {
		cur, err := scrape(client, metricsURL)
		if err == nil {
			pending := cur.Sum("tafpgad_jobs_queued") + cur.Sum("tafpgad_jobs_running")
			if pending == 0 {
				break
			}
		}
		if time.Now().After(drainDeadline) {
			fail("daemon did not drain within %v", *wait)
		}
		time.Sleep(200 * time.Millisecond)
	}
	rep.DrainedInMs = int(time.Since(drainStart).Milliseconds())
	rep.WallS = time.Since(start).Seconds()

	final, err := scrape(client, metricsURL)
	if err != nil {
		fail("final scrape: %v", err)
	}
	rep.JobsCompleted = final.Sum("tafpgad_jobs_completed_total") - base.Sum("tafpgad_jobs_completed_total")
	rep.JobsFailed = final.Sum("tafpgad_jobs_failed_total") - base.Sum("tafpgad_jobs_failed_total")
	if rep.WallS > 0 {
		rep.ThroughputPS = rep.JobsCompleted / rep.WallS
	}

	// Latency quantiles come from the daemon's duration histogram,
	// baseline-subtracted so only this run's jobs count.
	fh, okF := final.HistogramFrom("tafpgad_job_duration_seconds")
	bh, okB := base.HistogramFrom("tafpgad_job_duration_seconds")
	if okF {
		h := fh
		if okB {
			if err := subtract(&h, bh); err != nil {
				fail("histogram baseline subtraction: %v", err)
			}
		}
		rep.LatencyS.P50 = round6(h.Quantile(0.50))
		rep.LatencyS.P95 = round6(h.Quantile(0.95))
		rep.LatencyS.P99 = round6(h.Quantile(0.99))
		if h.Count > 0 {
			rep.LatencyS.Mean = round6(h.Sum / float64(h.Count))
		}
	}

	// Batched-sweep lanes: how many lockstep dispatches this run's sweep
	// jobs issued and how wide they were, baseline-subtracted like the
	// latency histogram.
	if lh, ok := final.HistogramFrom("tafpgad_sweep_lanes"); ok {
		h := lh
		if bh, ok := base.HistogramFrom("tafpgad_sweep_lanes"); ok {
			if err := subtract(&h, bh); err != nil {
				fail("sweep-lane baseline subtraction: %v", err)
			}
		}
		rep.SweepBatches = float64(h.Count)
		if h.Count > 0 {
			rep.SweepMeanLanes = round6(h.Sum / float64(h.Count))
		}
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fail("write %s: %v", *out, err)
	}
	logf("done: %.0f jobs completed, %.3f jobs/s, p50 %.3gs p95 %.3gs p99 %.3gs",
		rep.JobsCompleted, rep.ThroughputPS, rep.LatencyS.P50, rep.LatencyS.P95, rep.LatencyS.P99)
}

// nextSpec draws the next spec of the deterministic stream: guardband
// points on a -grid-sized ambient lattice (grid size sets how often dedup
// and the flow cache see repeats), a -mix fraction of short sweeps, and an
// -energy-mix fraction of min-energy Vdd bisections at the baseline clock.
func nextSpec(rng *rand.Rand, benches []string, mix, energyMix float64, grid int) jobs.Spec {
	if grid < 1 {
		grid = 1
	}
	if grid > 2000 {
		grid = 2000 // keeps every ambient (plus sweep offsets) inside admission bounds
	}
	bench := benches[rng.Intn(len(benches))]
	ambient := 20 + 0.05*float64(rng.Intn(grid)) // 0.05°C lattice from 20°C up
	switch r := rng.Float64(); {
	case r < mix:
		n := 2 + rng.Intn(2)
		amb := make([]float64, n)
		for i := range amb {
			amb[i] = ambient + 10*float64(i)
		}
		return jobs.Spec{Kind: jobs.KindSweep, Benchmark: bench, Ambients: amb}
	case r < mix+energyMix:
		// One- or two-ambient min-energy searches at the benchmark's own
		// baseline clock (TargetMHz 0); the second point rides 10°C hotter so
		// a sweep shares its bisection derivations through the VddLab.
		n := 1 + rng.Intn(2)
		amb := make([]float64, n)
		for i := range amb {
			amb[i] = ambient + 10*float64(i)
		}
		return jobs.Spec{Kind: jobs.KindMinEnergy, Benchmark: bench, Ambients: amb}
	default:
		return jobs.Spec{Kind: jobs.KindGuardband, Benchmark: bench, AmbientC: ambient}
	}
}

// scrape fetches and parses one /metrics payload.
func scrape(client *http.Client, url string) (*obs.Scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	sc, err := obs.ParseScrape(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", url, err)
	}
	return sc, nil
}

// subtract removes a baseline snapshot from h bucket-wise.
func subtract(h *obs.HistogramSnapshot, base obs.HistogramSnapshot) error {
	if len(base.Counts) == 0 {
		return nil
	}
	if len(h.Counts) != len(base.Counts) {
		return fmt.Errorf("bucket count mismatch: %d vs %d", len(h.Counts), len(base.Counts))
	}
	for i := range h.Counts {
		if base.Counts[i] > h.Counts[i] {
			return fmt.Errorf("baseline bucket %d exceeds final (%d > %d)", i, base.Counts[i], h.Counts[i])
		}
		h.Counts[i] -= base.Counts[i]
	}
	h.Sum -= base.Sum
	if base.Count > h.Count {
		return fmt.Errorf("baseline count exceeds final")
	}
	h.Count -= base.Count
	return nil
}

func round6(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}
