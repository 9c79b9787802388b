// Package oracle composes the seed kernels the optimized code replaced into
// whole runs: Algorithm 1 over sta.AnalyzeReference and
// hotspot.SolveReference, and the implementation flow over
// place.PlaceReference and the production router. The equivalence tests hold
// the production engine and flow against these paths, and the perf
// harness times them as its "before" numbers. Only tests and benchmarks
// import this package; a guard test keeps it out of production code.
package oracle

import (
	"fmt"
	"math"
	"time"

	"tafpga/internal/activity"
	"tafpga/internal/arch"
	"tafpga/internal/coffe"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/hotspot"
	"tafpga/internal/netlist"
	"tafpga/internal/pack"
	"tafpga/internal/place"
	"tafpga/internal/power"
	"tafpga/internal/route"
	"tafpga/internal/sta"
)

// Run is Algorithm 1 on the seed kernels: serial, one probe and one
// Gauss-Seidel solve per iteration, with guardband.Run's defaults, ablation
// knobs and accounting. Ctx, OnIteration and ThermalSeed are ignored.
func Run(an *sta.Analyzer, pm *power.Model, th *hotspot.Model, opts guardband.Options) (*guardband.Result, error) {
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
		rep := an.AnalyzeReference(temps)
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
		p := pm.Vector(f, leak)
		res.Stats.PowerNs += time.Since(t0).Nanoseconds()
		t0 = time.Now()
		next, err := th.SolveReference(p, opts.AmbientC)
		res.Stats.ThermalSolves++
		res.Stats.ThermalNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
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

// Implement is flow.Implement through the seed placer and route.Route,
// built from the flow's public stages. It never consults opts.Cache or opts.Ctx,
// and rejects thermal placement, which the seed placer does not have.
func Implement(nl *netlist.Netlist, dev *coffe.Device, opts flow.Options) (*flow.Implementation, error) {
	if nl.Sinks == nil {
		return nil, fmt.Errorf("oracle: netlist %s is not frozen", nl.Name)
	}
	if opts.ThermalPlace.Weight > 0 {
		return nil, fmt.Errorf("oracle: the seed placer has no thermal term")
	}
	act := activity.Estimate(nl, opts.PIDensity)
	packed, err := pack.Pack(nl, dev.Arch.N, dev.Arch.ClusterInputs)
	if err != nil {
		return nil, fmt.Errorf("oracle: pack: %w", err)
	}
	params := dev.Arch
	if opts.ChannelTracks > 0 {
		params.ChannelTracks = opts.ChannelTracks
	}
	grid, err := arch.Build(params, len(packed.Clusters), len(packed.BRAMs), len(packed.DSPs))
	if err != nil {
		return nil, fmt.Errorf("oracle: grid: %w", err)
	}
	placed, err := place.PlaceReference(packed, grid, opts.Seed, opts.PlaceEffort)
	if err != nil {
		return nil, fmt.Errorf("oracle: place: %w", err)
	}
	routed, err := route.Route(placed, flow.BuildGraph(grid), opts.Router)
	if err != nil {
		return nil, fmt.Errorf("oracle: route: %w", err)
	}
	pm := power.New(dev, nl, placed, routed, act)
	th, err := hotspot.NewModel(grid.W, grid.H, pm.BasePowerUW(25))
	if err != nil {
		return nil, fmt.Errorf("oracle: thermal: %w", err)
	}
	return &flow.Implementation{
		Netlist: nl, Device: dev, Grid: grid, Packed: packed, Placed: placed,
		Routed: routed, Activity: act, Timing: sta.New(nl, dev, placed, routed), Power: pm, Thermal: th,
	}, nil
}
