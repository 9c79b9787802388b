package main

import (
	"runtime"
	"time"
)

// layerSpans are the span names a traced run reports, as "<name>_s": self
// seconds over the traced run's ops, census included.
var layerSpans = []string{
	"coffe.size", "bench.generate", "activity.estimate", "pack.pack", "arch.build",
	"thermalest.kernel", "place.anneal", "place.thermal_anneal", "route.graph", "route.route",
	"flow.cached_implement", "flow.assemble", "coffe.atvdd",
	"guardband.run", "guardband.batch", "guardband.energy",
	"sta.analyze", "power.eval", "hotspot.solve",
}

// layerCounts are work counters, totals over the traced run's ops. For one
// seed they repeat exactly from run to run.
var layerCounts = []string{
	"route.iters", "route.wirelength", "coffe.atvdd_calls",
	"guardband.iterations", "guardband.sta_probes", "guardband.thermal_solves",
	"guardband.lockstep_rounds", "guardband.retired_early", "guardband.energy_probes",
}

// serveLayer are the serving-layer metrics: means over serve-warm's
// closed-loop jobs, or the census job's values in the other workloads.
var serveLayer = []struct{ name, unit string }{
	{"server.submit_s", "s"}, {"jobs.queue_wait_s", "s"}, {"jobs.run_s", "s"},
	{"jobs.deduped", "count"}, {"jobs.failed", "count"}, {"jobs.journal_records", "count"},
}

// apportionSpan holds the time a traced run spends re-running stages only
// to measure them (serve-warm splits its cache-hit rebuild this way). It
// counts toward no layer and is left out of the tracing overhead.
const apportionSpan = "trace.apportion"

// traceRun is what a traced run hands to finishTraced.
type traceRun struct {
	tr  *tracer
	ops int
	// plain and traced are the wall times of the same ops run through the
	// entry points and rebuilt with spans.
	plain, traced time.Duration
	allocMB       float64
	savings       []float64
	// serve holds serveLayer values (nil: take the census job's).
	serve map[string]float64
}

// finishTraced runs the census and reports every per-layer metric, so each
// workload's traced run prints the same names, each one measured.
func finishTraced(rep *report, t traceRun, workDir string) (*report, error) {
	censusServe, saving, err := census(t.tr, workDir)
	if err != nil {
		return nil, err
	}
	t.savings = append(t.savings, saving)
	if t.serve == nil {
		t.serve = censusServe
	}
	var sum time.Duration
	for _, name := range layerSpans {
		rep.add(name+"_s", "s", t.tr.selfSeconds(name))
		sum += t.tr.self[name]
	}
	for _, name := range layerCounts {
		rep.add(name, "count", float64(t.tr.counts[name]))
	}
	for _, m := range serveLayer {
		rep.add(m.name, m.unit, t.serve[m.name])
	}
	rep.add("alloc_mb_per_op", "MB", t.allocMB/float64(max(t.ops, 1)))
	rep.add("energy_saving_pct", "%", mean(t.savings))
	overhead, coverage := 0.0, 0.0
	traced := t.traced - t.tr.self[apportionSpan]
	if t.plain > 0 && traced > 0 {
		overhead = (traced.Seconds()/t.plain.Seconds() - 1) * 100
	}
	if op := t.tr.self["op"]; op+sum > 0 {
		coverage = 100 * sum.Seconds() / (sum + op).Seconds()
	}
	rep.add("trace.overhead_pct", "%", overhead)
	rep.add("trace.coverage_pct", "%", coverage)
	rep.note("trace: %d ops; untraced %.3f s, traced %.3f s; layer self times cover %.2f%% of traced op time",
		t.ops, t.plain.Seconds(), t.traced.Seconds(), coverage)
	return rep, nil
}

// totalAllocMB reads the cumulative Go heap allocation in MB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
