// Inner-loop profiling benchmarks: the three kernels Algorithm 1 spends
// its time in — the full-netlist timing probe, the steady-state thermal
// solve, and the complete guardbanding run — each in its optimized form and
// as the seed ("Reference") implementation kept in the same test binary
// (whole runs through internal/oracle). They are entry points for pprof:
//
//	go test -run '^$' -bench BenchmarkGuardbandRun -cpuprofile cpu.out .
//
// Performance records come from tabench (guardband-warm), not from these.
// The subject is mcml, the largest bundled benchmark, at the shared harness
// scale.
package tafpga_test

import (
	"fmt"
	"sync"
	"testing"

	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/oracle"
	"tafpga/internal/sta"
)

var (
	innerOnce sync.Once
	innerIm   *flow.Implementation
	innerErr  error
)

// innerLoopFixture implements the largest bundled benchmark once and shares
// it across the kernel benchmarks.
func innerLoopFixture(b *testing.B) *flow.Implementation {
	b.Helper()
	innerOnce.Do(func() {
		ctx := sharedContext(b)
		innerIm, innerErr = ctx.Implementation("mcml")
	})
	if innerErr != nil {
		b.Fatal(innerErr)
	}
	return innerIm
}

// hotTemps builds a non-uniform operating-point temperature map so the
// kernels price a realistic gradient, not a constant.
func hotTemps(im *flow.Implementation) []float64 {
	n := im.Grid.NumTiles()
	t := make([]float64, n)
	for i := range t {
		t[i] = 45 + 20*float64(i%im.Grid.W)/float64(im.Grid.W)
	}
	return t
}

// BenchmarkHotspotSolve measures the factorized direct thermal solve.
func BenchmarkHotspotSolve(b *testing.B) {
	im := innerLoopFixture(b)
	p := im.Power.Vector(100, hotTemps(im))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := im.Thermal.Solve(p, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotspotSolveReference measures the seed Gauss-Seidel solver.
func BenchmarkHotspotSolveReference(b *testing.B) {
	im := innerLoopFixture(b)
	p := im.Power.Vector(100, hotTemps(im))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := im.Thermal.SolveReference(p, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTAAnalyze measures the compiled full-netlist timing probe.
func BenchmarkSTAAnalyze(b *testing.B) {
	im := innerLoopFixture(b)
	temps := hotTemps(im)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := im.Timing.Analyze(temps); rep.PeriodPs <= 0 {
			b.Fatal("degenerate probe")
		}
	}
}

// BenchmarkSTAAnalyzeReference measures the seed map-walking probe.
func BenchmarkSTAAnalyzeReference(b *testing.B) {
	im := innerLoopFixture(b)
	temps := hotTemps(im)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := im.Timing.AnalyzeReference(temps); rep.PeriodPs <= 0 {
			b.Fatal("degenerate probe")
		}
	}
}

// BenchmarkSTASlacks measures the per-block slack pass (forward + backward
// sweep on the compiled graph).
func BenchmarkSTASlacks(b *testing.B) {
	im := innerLoopFixture(b)
	temps := hotTemps(im)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sl := im.Timing.Slacks(temps); sl.PeriodPs <= 0 {
			b.Fatal("degenerate slack pass")
		}
	}
}

// BenchmarkSTASlacksInto measures the slack pass with caller-owned buffers —
// the allocation-free steady state of loops that re-probe criticality.
func BenchmarkSTASlacksInto(b *testing.B) {
	im := innerLoopFixture(b)
	temps := hotTemps(im)
	var rep sta.SlackReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Timing.SlacksInto(temps, &rep)
		if rep.PeriodPs <= 0 {
			b.Fatal("degenerate slack pass")
		}
	}
}

// TestSlacksIntoAllocationBound pins the slack-pass allocation win: once the
// report buffers and the probe scratch pool are warm, a re-probed slack pass
// may allocate only Analyze's small returned report (map header + breakdown
// buckets), not fresh per-call arrival/required/criticality vectors.
func TestSlacksIntoAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("implements mcml; skipped in -short")
	}
	ctx := sharedContext(t)
	im, err := ctx.Implementation("mcml")
	if err != nil {
		t.Fatal(err)
	}
	temps := hotTemps(im)
	var rep sta.SlackReport
	im.Timing.SlacksInto(temps, &rep) // warm the buffers and scratch pool
	avg := testing.AllocsPerRun(20, func() { im.Timing.SlacksInto(temps, &rep) })
	if avg > 20 {
		t.Fatalf("SlacksInto allocates %.1f objects per warmed call, want <= 20", avg)
	}
}

// BenchmarkGuardbandRun measures one complete Algorithm-1 run with the
// optimized kernels (compiled STA, direct thermal solve).
func BenchmarkGuardbandRun(b *testing.B) {
	im := innerLoopFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := im.Guardband(guardband.DefaultOptions(25))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Stats.STAProbes), "sta-probes")
		}
	}
}

// BenchmarkGuardbandRunReference measures the same run on the seed kernels
// (oracle.Run) — the "before" number of the perf harness.
func BenchmarkGuardbandRunReference(b *testing.B) {
	im := innerLoopFixture(b)
	opts := guardband.DefaultOptions(25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.Run(im.Timing, im.Power, im.Thermal, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepAmbients is the Fig. 6/7/8 temperature axis (0:100:10) both sweep
// benchmarks traverse.
func sweepAmbients() []float64 {
	amb := make([]float64, 0, 11)
	for t := 0.0; t <= 100; t += 10 {
		amb = append(amb, t)
	}
	return amb
}

// BenchmarkGuardbandSweepSerial measures the ambient sweep: one
// Algorithm-1 run per ambient, as GuardbandSweep executes it.
func BenchmarkGuardbandSweepSerial(b *testing.B) {
	im := innerLoopFixture(b)
	ambients := sweepAmbients()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, amb := range ambients {
			if _, err := im.Guardband(guardband.DefaultOptions(amb)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// energyAmbients is the ambient axis of the min-energy benchmark pair.
// Neighboring ambients bisect the same dyadic voltage grid, so the axis is
// exactly the workload the VddLab's per-rail memoization targets.
func energyAmbients() []float64 { return []float64{0, 25, 70} }

// naiveEnergyModels derives the per-rail models for one probe from scratch
// — Implementation.AtVdd straight off the base, no memoization — so every
// probe of every ambient pays the full device re-characterization and model
// assembly. This is the "before" shape of the search: correct, and what a
// caller without the VddLab would write.
func naiveEnergyModels(im *flow.Implementation, ambientC float64) func(float64) (guardband.EnergyModels, error) {
	nominal := im.Device.Kit.Buf.Vdd
	return func(vdd float64) (guardband.EnergyModels, error) {
		v := im
		if vdd != nominal {
			var err error
			v, err = im.AtVdd(vdd)
			if err != nil {
				return guardband.EnergyModels{}, err
			}
		}
		if err := v.Device.Kit.OperableAt(ambientC); err != nil {
			return guardband.EnergyModels{}, err
		}
		return guardband.EnergyModels{Timing: v.Timing, Power: v.Power, Thermal: v.Thermal}, nil
	}
}

// BenchmarkMinEnergySearch measures the min-energy objective across the
// ambient axis through one VddLab: probes at repeated rails (neighboring
// ambients walk the same dyadic voltage grid) reuse the memoized device
// tables and analysis models.
func BenchmarkMinEnergySearch(b *testing.B) {
	im := innerLoopFixture(b)
	ambients := energyAmbients()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab := flow.NewVddLab(im)
		probes := 0
		for _, amb := range ambients {
			res, err := lab.MinEnergy(guardband.DefaultEnergyOptions(amb))
			if err != nil {
				b.Fatal(err)
			}
			probes += res.Probes
		}
		if i == b.N-1 {
			b.ReportMetric(float64(probes), "vdd-probes")
		}
	}
}

// BenchmarkMinEnergyRebuild measures the same searches with per-probe
// from-scratch model derivation (no memoization, no sharing across
// ambients) — the naive "before" half of the pair. The physics is
// bit-identical; only the derivation work differs.
func BenchmarkMinEnergyRebuild(b *testing.B) {
	im := innerLoopFixture(b)
	ambients := energyAmbients()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, amb := range ambients {
			opts := guardband.DefaultEnergyOptions(amb)
			opts.NominalVddV = im.Device.Kit.Buf.Vdd
			opts.ModelsAt = naiveEnergyModels(im, amb)
			if _, err := guardband.RunEnergy(opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestMinEnergyBenchmarkAgreement guards the pair: the memoized and naive
// searches must land on identical physics (only Stats — wall-clock and
// kernel counts — may differ).
func TestMinEnergyBenchmarkAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("implements mcml; skipped in -short")
	}
	ctx := sharedContext(t)
	im, err := ctx.Implementation("mcml")
	if err != nil {
		t.Fatal(err)
	}
	lab := flow.NewVddLab(im)
	for _, amb := range energyAmbients() {
		viaLab, err := lab.MinEnergy(guardband.DefaultEnergyOptions(amb))
		if err != nil {
			t.Fatal(err)
		}
		opts := guardband.DefaultEnergyOptions(amb)
		opts.NominalVddV = im.Device.Kit.Buf.Vdd
		opts.ModelsAt = naiveEnergyModels(im, amb)
		naive, err := guardband.RunEnergy(opts)
		if err != nil {
			t.Fatal(err)
		}
		a, b := *viaLab, *naive
		a.Stats, b.Stats = guardband.Stats{}, guardband.Stats{}
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("ambient %g: memoized and naive searches diverged:\nlab:   %+v\nnaive: %+v", amb, a, b)
		}
	}
}

// TestInnerLoopBenchmarkAgreement guards the harness itself: the optimized
// and reference guardband runs it compares must land on the same operating
// point for the benchmark subject.
func TestInnerLoopBenchmarkAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("implements mcml; skipped in -short")
	}
	ctx := sharedContext(t)
	im, err := ctx.Implementation("mcml")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := im.Guardband(guardband.DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.Run(im.Timing, im.Power, im.Thermal, guardband.DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if opt.BaselineMHz != ref.BaselineMHz {
		t.Fatalf("baseline diverged: %v vs %v", opt.BaselineMHz, ref.BaselineMHz)
	}
	rel := (opt.FmaxMHz - ref.FmaxMHz) / ref.FmaxMHz
	if rel < 0 {
		rel = -rel
	}
	if rel > 1e-5 {
		t.Fatalf("fmax diverged: %v vs %v (rel %g)", opt.FmaxMHz, ref.FmaxMHz, rel)
	}
	// The probe the benchmarks time must also agree bit for bit.
	temps := hotTemps(im)
	if got, want := im.Timing.Analyze(temps).PeriodPs, im.Timing.AnalyzeReference(temps).PeriodPs; got != want {
		t.Fatalf("Analyze %v != AnalyzeReference %v", got, want)
	}
}
