package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/jobs"
	"tafpga/internal/obs"
	"tafpga/internal/server"
)

// census calls every layer once, on sha with fixed inputs, at the end of
// every workload's traced run: a thermal-placement build with an fmax run,
// an oblivious build with a min-energy search, an 11-lane batch, a
// cache-hit rebuild, and one job served by an in-process jobs.Manager
// behind the HTTP server with its journal on. Each per-layer time is then
// measured in every workload, never a constant 0; the census is the same
// work everywhere, so what differs between workloads is their own ops.
//
// It returns the served job's serving-layer metrics and the min-energy
// search's saving.
func census(tr *tracer, workDir string) (map[string]float64, float64, error) {
	im, _, err := coldInProcess(tr, coldOp{Design: "sha", Kind: kindThermal, AmbientC: 25, PlaceSeed: 1})
	if err != nil {
		return nil, 0, fmt.Errorf("census: %w", err)
	}
	_, energy, err := coldInProcess(tr, coldOp{Design: "sha", Kind: kindEnergy, AmbientC: 25, PlaceSeed: 1})
	if err != nil {
		return nil, 0, fmt.Errorf("census: %w", err)
	}
	if _, err := batchTraced(tr, im, warmAxis, guardband.DefaultOptions(warmAxis[0])); err != nil {
		return nil, 0, fmt.Errorf("census: %w", err)
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(workDir, "census-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	journal, err := jobs.OpenJournal(filepath.Join(dir, "state"))
	if err != nil {
		return nil, 0, err
	}
	defer journal.Close()
	reg := obs.NewRegistry()
	mgr := jobs.New(newServeRunner(dir).Run, jobs.Options{
		Workers: 1, MaxQueue: 8, TTL: time.Minute, Registry: reg, Journal: journal,
		Retry: jobs.RetryPolicy{MaxAttempts: 1},
	})
	defer mgr.Close()
	srv := server.New(mgr, reg)
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The first job builds sha into the runner's flow cache; the second is
	// the cache-hit path every serve-warm job takes.
	spec := jobs.Spec{Kind: jobs.KindGuardband, Benchmark: "sha", AmbientC: 25}
	var out jobOutcome
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), serveJobTimeout)
		out, err = runJob(ctx, ts.Client(), ts.URL, spec)
		cancel()
		if err != nil {
			return nil, 0, fmt.Errorf("census: %w", err)
		}
	}
	cache := flow.NewCache(filepath.Join(dir, "flowcache"))
	if _, err := serveTraced(newTracer(), cache, im.Device, spec); err != nil { // disk to memory
		return nil, 0, fmt.Errorf("census: %w", err)
	}
	if _, err := serveTraced(tr, cache, im.Device, spec); err != nil {
		return nil, 0, fmt.Errorf("census: %w", err)
	}

	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	sc, err := obs.ParseScrape(&prom)
	if err != nil {
		return nil, 0, err
	}
	v := out.view
	if v.Started == nil || v.Finished == nil {
		return nil, 0, fmt.Errorf("census: served job %s has no start or finish time", v.ID)
	}
	return map[string]float64{
		"server.submit_s":      out.submit.Seconds(),
		"jobs.queue_wait_s":    v.Started.Sub(v.Created).Seconds(),
		"jobs.run_s":           v.Finished.Sub(*v.Started).Seconds(),
		"jobs.deduped":         sc.Sum("tafpgad_jobs_deduped_total"),
		"jobs.failed":          sc.Sum("tafpgad_jobs_failed_total"),
		"jobs.journal_records": sc.Sum("tafpgad_journal_records_total"),
	}, energy.(*guardband.EnergyResult).SavingsPct, nil
}
