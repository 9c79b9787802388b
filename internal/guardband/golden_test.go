package guardband_test

// golden_test.go pins the physics of every Algorithm-1 entry point — Run,
// RunBatch, RunEnergy and the experiments sweep over them — to
// an NDJSON file in testdata. Wall-clock fields are left out; every physics
// field and every work count is kept, so any refactor of the convergence
// loop must reproduce the recorded bytes exactly.
//
// To regenerate (only when a change is meant to move the physics), delete
// the file and run the test once: it records the current physics and fails
// so the new file is reviewed before it is committed.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"tafpga/internal/coffe"
	"tafpga/internal/experiments"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
)

const goldenPath = "testdata/golden_physics.ndjson"

// goldenDesigns are small suite benchmarks at the test-harness scale.
var goldenDesigns = []string{"sha", "mkPktMerge", "raygentop"}

// goldenCounts is the work accounting of a run: Stats without wall times.
type goldenCounts struct {
	STAProbes, ThermalSolves int
}

func countsOf(s guardband.Stats) goldenCounts {
	return goldenCounts{STAProbes: s.STAProbes, ThermalSolves: s.ThermalSolves}
}

type goldenResult struct {
	FmaxMHz, BaselineMHz, GainPct float64
	Converged                     bool
	Iterations                    int
	Temps                         []float64
	// SeedTemps is recorded only where it differs from Temps (the UniformT
	// ablation collapses Temps but not the raw solver output).
	SeedTemps      []float64 `json:",omitempty"`
	RiseC, SpreadC float64
	Breakdown      map[coffe.ResourceKind]float64
	Counts         goldenCounts
}

func resultOf(r *guardband.Result) goldenResult {
	g := goldenResult{
		FmaxMHz: r.FmaxMHz, BaselineMHz: r.BaselineMHz, GainPct: r.GainPct,
		Converged: r.Converged, Iterations: r.Iterations,
		Temps: r.Temps, RiseC: r.RiseC, SpreadC: r.SpreadC,
		Breakdown: r.Breakdown, Counts: countsOf(r.Stats),
	}
	if !slices.Equal(r.SeedTemps, r.Temps) {
		g.SeedTemps = r.SeedTemps
	}
	return g
}

type goldenRun struct {
	Label    string
	Result   goldenResult
	Progress []guardband.Progress
}

type goldenBatch struct {
	Label    string
	Ambients []float64
	Results  []goldenResult
	Progress []guardband.Progress
}

// goldenEnergyResult is guardband.EnergyResult without its Stats.
type goldenEnergyResult struct {
	AmbientC, TargetMHz, BaselineMHz    float64
	NominalVddV, NominalPowerUW         float64
	Feasible                            bool
	MinVddV, PowerUW, FmaxMHz           float64
	SavingsPct, EnergyPJ, NominalEnergy float64
	Probes, Iterations                  int
	Converged                           bool
	Temps                               []float64
	RiseC                               float64
}

type goldenEnergy struct {
	Label  string
	Result goldenEnergyResult
	Counts goldenCounts
	Probes []guardband.EnergyProbe
}

type goldenSweepRow struct {
	Name                          string
	GainPct, FmaxMHz, BaselineMHz float64
	Iterations                    int
	RiseC, SpreadC                float64
	Converged                     bool
	Counts                        goldenCounts
}

type goldenSweep struct {
	// SweepBatch is always 1: sweeps run one ambient at a time. It stays
	// so the recorded rows keep their bytes.
	SweepBatch int
	Rows       []goldenSweepRow
}

type goldenDesign struct {
	Name    string
	Runs    []goldenRun
	Batches []goldenBatch
	Energy  []goldenEnergy
	Sweeps  []goldenSweep
}

// sweepAxis is the 0:100:10 ambient axis of the batches and sweeps.
func sweepAxis() []float64 {
	var a []float64
	for t := 0.0; t <= 100; t += 10 {
		a = append(a, t)
	}
	return a
}

// variantOptions returns the Algorithm-1 options of one recorded variant:
// the defaults, the two ablations, a tight δT that makes ambients converge
// in different iteration counts, and a one-iteration budget that leaves
// runs unconverged.
func variantOptions(variant string, ambientC float64) guardband.Options {
	opts := guardband.DefaultOptions(ambientC)
	switch variant {
	case "uniformT":
		opts.UniformT = true
	case "freezeLeakage":
		opts.FreezeLeakage = true
	case "tightDelta":
		opts.DeltaTC = 0.001
	case "oneIter":
		opts.MaxIters = 1
	}
	return opts
}

func goldenContext() *experiments.Context {
	c := experiments.NewContext(1.0 / 64)
	c.ChannelTracks = 104
	c.PlaceEffort = 0.3
	c.Benchmarks = goldenDesigns
	return c
}

func recordDesign(t *testing.T, c *experiments.Context, name string) goldenDesign {
	t.Helper()
	im, err := c.Implementation(name)
	if err != nil {
		t.Fatal(err)
	}
	d := goldenDesign{Name: name}

	for _, amb := range []float64{0, 25, 70, 100} {
		for _, variant := range []string{"plain", "uniformT", "freezeLeakage", "tightDelta", "oneIter"} {
			opts := variantOptions(variant, amb)
			var prog []guardband.Progress
			opts.OnIteration = func(p guardband.Progress) { prog = append(prog, p) }
			r, err := guardband.Run(im.Timing, im.Power, im.Thermal, opts)
			if err != nil {
				t.Fatalf("%s Run %g %s: %v", name, amb, variant, err)
			}
			d.Runs = append(d.Runs, goldenRun{
				Label: variant + "@" + strconv.Itoa(int(amb)), Result: resultOf(r), Progress: prog,
			})
		}
	}

	axis := sweepAxis()
	for _, b := range []struct {
		variant  string
		ambients []float64
	}{
		{"plain", []float64{25}}, {"plain", []float64{25, 70}}, {"plain", axis},
		{"tightDelta", axis}, {"oneIter", axis},
	} {
		ambients := b.ambients
		opts := variantOptions(b.variant, 0)
		var prog []guardband.Progress
		opts.OnIteration = func(p guardband.Progress) { prog = append(prog, p) }
		rs, err := guardband.RunBatch(im.Timing, im.Power, im.Thermal, ambients, opts)
		if err != nil {
			t.Fatalf("%s RunBatch %v: %v", name, ambients, err)
		}
		gb := goldenBatch{Label: b.variant, Ambients: ambients, Progress: prog}
		for _, r := range rs {
			gb.Results = append(gb.Results, resultOf(r))
		}
		d.Batches = append(d.Batches, gb)
	}

	lab := flow.NewVddLab(im)
	for _, c := range []struct {
		label  string
		amb    float64
		target func(baseline float64) float64
	}{
		{"baseline@25", 25, func(float64) float64 { return 0 }},
		{"baseline@70", 70, func(float64) float64 { return 0 }},
		{"infeasible@25", 25, func(b float64) float64 { return 2 * b }},
	} {
		opts := guardband.DefaultEnergyOptions(c.amb)
		base, err := guardband.Run(im.Timing, im.Power, im.Thermal, guardband.DefaultOptions(c.amb))
		if err != nil {
			t.Fatal(err)
		}
		opts.TargetMHz = c.target(base.BaselineMHz)
		var probes []guardband.EnergyProbe
		opts.OnProbe = func(p guardband.EnergyProbe) { probes = append(probes, p) }
		er, err := lab.MinEnergy(opts)
		if err != nil {
			t.Fatalf("%s RunEnergy %s: %v", name, c.label, err)
		}
		d.Energy = append(d.Energy, goldenEnergy{
			Label: c.label,
			Result: goldenEnergyResult{
				AmbientC: er.AmbientC, TargetMHz: er.TargetMHz, BaselineMHz: er.BaselineMHz,
				NominalVddV: er.NominalVddV, NominalPowerUW: er.NominalPowerUW,
				Feasible: er.Feasible, MinVddV: er.MinVddV, PowerUW: er.PowerUW, FmaxMHz: er.FmaxMHz,
				SavingsPct: er.SavingsPct, EnergyPJ: er.EnergyPJ, NominalEnergy: er.NominalEnergyPJ,
				Probes: er.Probes, Iterations: er.Iterations, Converged: er.Converged,
				Temps: er.Temps, RiseC: er.RiseC,
			},
			Counts: countsOf(er.Stats), Probes: probes,
		})
	}

	rows, err := c.GuardbandSweep(name, axis)
	if err != nil {
		t.Fatalf("%s GuardbandSweep: %v", name, err)
	}
	s := goldenSweep{SweepBatch: 1}
	for _, r := range rows {
		s.Rows = append(s.Rows, goldenSweepRow{
			Name: r.Name, GainPct: r.GainPct, FmaxMHz: r.FmaxMHz, BaselineMHz: r.BaselineMHz,
			Iterations: r.Iterations, RiseC: r.RiseC, SpreadC: r.SpreadC,
			Converged: r.Converged, Counts: countsOf(r.Stats),
		})
	}
	d.Sweeps = append(d.Sweeps, s)
	return d
}

// goldenLine is one record of the golden file: a compact JSON line per
// entry-point call, so a drift report names the call that moved.
type goldenLine struct {
	Design, Call string
	Record       any
}

// TestGoldenPhysics holds every Algorithm-1 entry point to the recorded
// physics file byte for byte.
func TestGoldenPhysics(t *testing.T) {
	c := goldenContext()
	var got []byte
	add := func(design, call string, v any) {
		b, err := json.Marshal(goldenLine{Design: design, Call: call, Record: v})
		if err != nil {
			t.Fatal(err)
		}
		got = append(append(got, b...), '\n')
	}
	for _, name := range goldenDesigns {
		d := recordDesign(t, c, name)
		for _, r := range d.Runs {
			add(name, "Run", r)
		}
		for _, b := range d.Batches {
			add(name, "RunBatch", b)
		}
		for _, e := range d.Energy {
			add(name, "RunEnergy", e)
		}
		for _, s := range d.Sweeps {
			add(name, "GuardbandSweep", s)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; review and commit it, then rerun", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("physics drifted from %s at line %d:\n got %s\nwant %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("physics drifted from %s: %d lines vs %d", goldenPath, len(gl), len(wl))
	}
}
