package hotspot_test

// oracle_test.go is the whole-run oracle: Algorithm 1 over the seed
// Gauss-Seidel solver of reference_test.go, held against guardband.Run on the
// golden designs.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"tafpga/internal/experiments"
	"tafpga/internal/guardband"
	"tafpga/internal/hotspot"
	"tafpga/internal/power"
	"tafpga/internal/sta"
)

// goldenDesigns and goldenContext are the guardband golden-physics fixture:
// small suite benchmarks at the test-harness scale.
var goldenDesigns = []string{"sha", "mkPktMerge", "raygentop"}

func goldenContext() *experiments.Context {
	c := experiments.NewContext(1.0 / 64)
	c.ChannelTracks = 104
	c.PlaceEffort = 0.3
	c.Benchmarks = goldenDesigns
	return c
}

// referenceRun is Algorithm 1 on the seed thermal kernel: serial, one probe
// and one Gauss-Seidel solve per iteration, with guardband.Run's defaults,
// ablation knobs and accounting. The probe is the production Analyze, which
// sta's equivalence tests pin bit for bit to the seed AnalyzeReference, and
// power is the production VectorInto. Ctx, OnIteration and ThermalSeed are
// ignored.
func referenceRun(an *sta.Analyzer, pm *power.Model, th *hotspot.Model, opts guardband.Options) (*guardband.Result, error) {
	if opts.MaxIters <= 0 {
		opts.MaxIters = 20
	}
	if opts.DeltaTC <= 0 {
		opts.DeltaTC = 0.5
	}
	n := an.PL.Grid.NumTiles()
	res := &guardband.Result{}
	probe := func(temps []float64) sta.Report {
		t0 := time.Now()
		rep := an.Analyze(temps)
		res.Stats.STAProbes++
		res.Stats.STANs += time.Since(t0).Nanoseconds()
		return rep
	}
	worst := probe(sta.UniformTemps(n, opts.WorstCaseC))

	temps := sta.UniformTemps(n, opts.AmbientC)
	for iter := 1; iter <= opts.MaxIters; iter++ {
		res.Iterations = iter
		f := probe(temps).FmaxMHz
		leak := temps
		if opts.FreezeLeakage {
			leak = sta.UniformTemps(n, opts.AmbientC)
		}
		t0 := time.Now()
		p := pm.VectorInto(f, leak, nil)
		res.Stats.PowerNs += time.Since(t0).Nanoseconds()
		t0 = time.Now()
		next, err := th.SolveReference(p, opts.AmbientC, hotspot.ReferenceTolerance, hotspot.ReferenceMaxSweeps)
		res.Stats.ThermalSolves++
		res.Stats.ThermalNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		res.SeedTemps = next
		if opts.UniformT {
			next = sta.UniformTemps(n, hotspot.Max(next))
		}
		maxDelta := 0.0
		for i := range next {
			maxDelta = max(maxDelta, math.Abs(next[i]-temps[i]))
		}
		temps = next
		if maxDelta <= opts.DeltaTC {
			res.Converged = true
			break
		}
	}

	margined := make([]float64, n)
	for i := range temps {
		margined[i] = temps[i] + opts.DeltaTC
	}
	final := probe(margined)
	res.FmaxMHz = final.FmaxMHz
	res.BaselineMHz = worst.FmaxMHz
	if worst.FmaxMHz > 0 {
		res.GainPct = (final.FmaxMHz/worst.FmaxMHz - 1) * 100
	}
	res.Temps = temps
	res.RiseC = hotspot.Mean(temps) - opts.AmbientC
	res.SpreadC = hotspot.Spread(temps)
	res.Breakdown = final.Breakdown
	return res, nil
}

// TestOptimizedRunMatchesReferenceRun: the engine on the optimized
// kernels (compiled STA, factorized thermal solver) must land on the same
// operating point as Algorithm 1 over the seed Gauss-Seidel solver. The thermal paths
// differ by at most the Gauss-Seidel tolerance (1e-5 °C), far inside the
// δT = 0.5 °C margin, so the resulting frequencies agree to a few parts
// per million.
func TestOptimizedRunMatchesReferenceRun(t *testing.T) {
	t.Parallel()
	c := goldenContext()
	for _, name := range goldenDesigns {
		im, err := c.Implementation(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, amb := range []float64{25, 70} {
			opts := guardband.DefaultOptions(amb)
			opt, err := guardband.Run(im.Timing, im.Power, im.Thermal, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceRun(im.Timing, im.Power, im.Thermal, opts)
			if err != nil {
				t.Fatal(err)
			}
			if opt.BaselineMHz != ref.BaselineMHz {
				t.Fatalf("%s@%g: baseline %v != reference %v (worst-case STA must be bit-identical)",
					name, amb, opt.BaselineMHz, ref.BaselineMHz)
			}
			if rel := math.Abs(opt.FmaxMHz-ref.FmaxMHz) / ref.FmaxMHz; rel > 1e-5 {
				t.Fatalf("%s@%g: fmax %v vs reference %v (rel %g)", name, amb, opt.FmaxMHz, ref.FmaxMHz, rel)
			}
			if opt.Iterations != ref.Iterations || opt.Converged != ref.Converged {
				t.Fatalf("%s@%g: convergence trajectory diverged: %d/%v vs %d/%v",
					name, amb, opt.Iterations, opt.Converged, ref.Iterations, ref.Converged)
			}
			if opt.Stats.STAProbes != ref.Stats.STAProbes || opt.Stats.ThermalSolves != ref.Stats.ThermalSolves {
				t.Fatalf("%s@%g: work accounting diverged: %+v vs %+v", name, amb, opt.Stats, ref.Stats)
			}
		}
	}
}
