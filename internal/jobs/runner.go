package jobs

import (
	"context"
	"fmt"
	"strings"

	"tafpga/internal/coffe"
	"tafpga/internal/experiments"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/techmodel"
	"tafpga/internal/thermarch"
)

// RunnerConfig is the run setup shared by every job of a daemon, and by a
// whole taexp or tafpga run; the cli package fills it from the flags the
// three commands share. It is deliberately not part of Spec (and therefore
// of the dedup key): one server serves one configuration.
type RunnerConfig struct {
	// Scale is the benchmark scale (0 = the harness default).
	Scale float64
	// ChannelTracks overrides the router channel width (0 = Table I).
	ChannelTracks int
	// PlaceEffort scales the annealing budget (0 = 1.0).
	PlaceEffort float64
	// BenchWorkers bounds the one experiments fan-out (Context.Workers):
	// over a suite's benchmarks in figure, min-energy and thermal-compare
	// jobs and taexp, and over the ambients of a sweep job, a
	// tafpga -sweep or taexp fig8sweep (0 = GOMAXPROCS).
	BenchWorkers int
	// Deprecated: ignored; routing is serial (parallel speculation lost to one worker).
	RouteWorkers int
	// Deprecated: ignored; Algorithm 1 runs one ambient at a time.
	SweepBatch int
	// Benchmarks restricts the suite used by figure jobs (nil = the full
	// Table II suite).
	Benchmarks []string
	// FlowCacheDir spills the content-keyed place-and-route cache to disk
	// (empty = memory only).
	FlowCacheDir string
}

// Runner executes specs. The expensive cross-job state — the corner-device
// library and the content-keyed implementation cache — is shared, while
// each job gets a fresh experiments.Context carrying its own cancellation
// and progress callback. Both shared structures are safe for concurrent
// use, so a multi-worker Manager can run jobs in parallel.
type Runner struct {
	cfg   RunnerConfig
	lib   *thermarch.Library
	cache *flow.Cache
}

// NewRunner builds the shared state once.
func NewRunner(cfg RunnerConfig) *Runner {
	return &Runner{
		cfg:   cfg,
		lib:   thermarch.NewLibrary(techmodel.Default22nm(), coffe.DefaultParams()),
		cache: flow.NewCache(cfg.FlowCacheDir),
	}
}

// Warm sizes the default device ahead of traffic so the first job does not
// pay the sizing latency (the daemon calls it before flipping /readyz).
func (r *Runner) Warm() error {
	_, err := r.lib.Device(25)
	return err
}

// Context builds an experiments context over the shared state: a job's,
// with its cancellation and its progress events (emit may be nil), or a
// whole taexp run's.
func (r *Runner) Context(ctx context.Context, emit func(Event)) *experiments.Context {
	c := experiments.NewContext(r.cfg.Scale)
	c.Kit, c.Arch, c.Lib = r.lib.Kit, r.lib.Arch, r.lib
	c.FlowCache = r.cache
	c.ChannelTracks = r.cfg.ChannelTracks
	if r.cfg.PlaceEffort > 0 {
		c.PlaceEffort = r.cfg.PlaceEffort
	}
	c.Workers = r.cfg.BenchWorkers
	c.Benchmarks = r.cfg.Benchmarks
	c.Ctx = ctx
	if emit != nil {
		c.OnProgress = func(bench string, p guardband.Progress) {
			// Compare-style experiments label progress "<bench>/<phase>";
			// split so consumers filter on benchmark without parsing.
			phase := ""
			if i := strings.IndexByte(bench, '/'); i >= 0 {
				bench, phase = bench[:i], bench[i+1:]
			}
			emit(Event{
				Benchmark: bench, Phase: phase, Iteration: p.Iteration, AmbientC: &p.AmbientC,
				FmaxMHz: p.FmaxMHz, MaxDeltaC: p.MaxDeltaC, MaxC: p.MaxC,
				Converged: p.Converged, VddV: p.VddV,
			})
		}
	}
	return c
}

// Run executes one spec; it is the Manager's RunFunc. Results are the same
// experiments types the CLIs print, so the server path is bit-identical to
// the batch path by construction.
func (r *Runner) Run(ctx context.Context, spec Spec, emit func(Event)) (any, error) {
	c := r.Context(ctx, emit)
	switch spec.Kind {
	case KindGuardband:
		rs, err := c.GuardbandSweep(spec.Benchmark, []float64{spec.AmbientC})
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	case KindSweep:
		return c.GuardbandSweep(spec.Benchmark, spec.Ambients)
	case KindFigure:
		switch spec.Figure {
		case "fig6":
			return c.Fig6()
		case "fig7":
			return c.Fig7()
		case "fig8":
			return c.Fig8()
		}
	case KindThermalPlaceCompare:
		return c.ThermalPlaceCompare(spec.AmbientC, flow.ThermalPlace{
			Weight:       spec.ThermalWeight,
			KernelRadius: spec.ThermalRadius,
		})
	case KindMinEnergy:
		// The spec names one benchmark; the driver sweeps the context suite.
		c.Benchmarks = []string{spec.Benchmark}
		return c.EnergySweep(spec.Ambients, spec.TargetMHz)
	}
	return nil, fmt.Errorf("jobs: unrunnable spec kind %q", spec.Kind)
}
