// Command tafpgad serves guardband and experiment runs over HTTP: jobs are
// submitted as JSON specs, queued FIFO into a bounded worker pool,
// deduplicated by canonical content key, and observable while they run via
// an NDJSON event stream and a Prometheus /metrics endpoint.
//
//	tafpgad [flags]
//
// Flags:
//
//	-addr a        listen address (default :8080)
//	-workers n     concurrent jobs (default 1)
//	-queue n       queued-job bound before 429s (default 64)
//	-ttl d         how long finished jobs stay retrievable (default 15m,
//	               at least 1s)
//	-drain d       graceful-shutdown budget before running jobs are
//	               hard-cancelled (default 10m)
//	-state-dir d   durable job state: job specs and finished views are kept
//	               in d and restored after a crash or restart (default:
//	               none, jobs are in-memory only); a d holding an older
//	               daemon's journal.ndjson is refused
//	-route-workers n  deprecated: ignored, routing is serial
//	-sweep-batch n deprecated: ignored, Algorithm 1 runs one ambient at a time
//	-retries n     deprecated: ignored, jobs are never retried
//
// Flags defined once in internal/cli, meaning the same in tafpga and taexp:
//
//	-scale f       benchmark scale relative to the published sizes (default 1/16)
//	-w n           router channel-width override (default: Table I's 320)
//	-effort f      placement effort (default 1.0)
//	-bench csv     restrict figure jobs to a comma-separated benchmark list
//	-parallel n    per-job fan-out workers over a suite's benchmarks or a
//	               sweep job's ambients (0 = GOMAXPROCS)
//	-flowcache d   on-disk place-and-route cache shared across jobs and runs
//	               (default: a memory-only cache shared across jobs)
//
// Submit, watch, and cancel:
//
//	curl -s localhost:8080/v1/jobs -d '{"kind":"guardband","benchmark":"sha","ambient_c":25}'
//	curl -s localhost:8080/v1/jobs/j-000001/events
//	curl -s -X DELETE localhost:8080/v1/jobs/j-000001
//
// SIGINT or SIGTERM drains: new submissions are refused, queued and running
// jobs finish (up to -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tafpga/internal/cli"
	"tafpga/internal/jobs"
	"tafpga/internal/obs"
	"tafpga/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	flag.Int("route-workers", 0, "deprecated: ignored, routing is serial")
	flag.Int("sweep-batch", 0, "deprecated: ignored, Algorithm 1 runs one ambient at a time")
	workers := flag.Int("workers", 1, "concurrent jobs")
	queue := flag.Int("queue", 64, "queued-job bound")
	ttl := flag.Duration("ttl", 15*time.Minute, "finished-job retention")
	drain := flag.Duration("drain", 10*time.Minute, "graceful-shutdown budget for running jobs")
	stateDir := flag.String("state-dir", "", "directory for durable job state files (empty = in-memory only)")
	flag.Int("retries", 1, "deprecated: ignored, jobs are never retried")
	cfg := cli.RunFlags(true)
	flag.Parse()
	// The TTL janitor ticks at half the TTL, so a TTL under a second would
	// spin it (and a non-positive one would panic NewTicker).
	if *ttl < time.Second {
		fmt.Fprintf(os.Stderr, "tafpgad: -ttl %v: must be at least 1s\n", *ttl)
		os.Exit(2)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tafpgad: "+format+"\n", args...)
	}

	reg := obs.NewRegistry()
	reg.GaugeL("tafpgad_build_info",
		"Process identity; the value is always 1 — the information rides in the labels.",
		fmt.Sprintf("addr=%q,go=%q", *addr, runtime.Version())).Set(1)

	runner := jobs.NewRunner(*cfg)

	// Durable state: with -state-dir, a restart restores every job —
	// finished results come back without recompute, interrupted jobs
	// re-enter the queue.
	var journal *jobs.Journal
	if *stateDir != "" {
		var err error
		journal, err = jobs.OpenJournal(*stateDir)
		if err != nil {
			logf("state dir: %v", err)
			os.Exit(1)
		}
	}

	mgr := jobs.New(runner.Run, jobs.Options{
		Workers:  *workers,
		MaxQueue: *queue,
		TTL:      *ttl,
		Registry: reg,
		Journal:  journal,
	})
	if journal != nil {
		restored, requeued := mgr.RecoveryStats()
		logf("state dir %s: %d finished job(s) restored, %d interrupted job(s) requeued",
			*stateDir, restored, requeued)
	}
	srv := server.New(mgr, reg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Serve immediately; /readyz flips once the device library is warm so
	// the first job does not pay the sizing latency.
	go func() {
		start := time.Now()
		if err := runner.Warm(); err != nil {
			logf("warmup failed: %v", err)
			os.Exit(1)
		}
		srv.SetReady(true)
		logf("ready: device library warm in %v", time.Since(start).Round(time.Millisecond))
	}()

	// TTL janitor: Submit sweeps lazily, this catches idle periods.
	stopJanitor := make(chan struct{})
	go func() {
		t := time.NewTicker(*ttl / 2)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				mgr.EvictExpired()
			case <-stopJanitor:
				return
			}
		}
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logf("listening on %s (scale %g, %d worker(s), queue %d)", *addr, cfg.Scale, *workers, *queue)

	select {
	case err := <-errCh:
		logf("serve: %v", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}
	stop() // restore default signal handling: a second signal kills us

	// Graceful drain: unready first so load balancers stop routing here,
	// then let queued and running jobs finish (event streams close with
	// their jobs), then close idle HTTP connections.
	logf("signal received, draining (budget %v)", *drain)
	srv.SetDraining(true)
	close(stopJanitor)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		logf("drain: hard-cancelled running jobs: %v", err)
	} else {
		logf("drained cleanly")
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("shutdown: %v", err)
	}
	<-errCh // ListenAndServe has returned http.ErrServerClosed
	logf("bye")
}
