package main

// pipeline.go rebuilds the repository's entry points from the layers'
// public functions with a span around each call: flow.Implement (no cache),
// guardband.Run/RunBatch, and VddLab.MinEnergy with a ModelsAt that times
// coffe.Device.AtVdd apart from the model re-assembly. The traced runs
// assert that every rebuilt output is byte-identical to the entry point's.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"tafpga/internal/activity"
	"tafpga/internal/arch"
	"tafpga/internal/coffe"
	"tafpga/internal/experiments"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/hotspot"
	"tafpga/internal/netlist"
	"tafpga/internal/pack"
	"tafpga/internal/place"
	"tafpga/internal/power"
	"tafpga/internal/route"
	"tafpga/internal/sta"
	"tafpga/internal/thermalest"
)

// implementTraced is flow.Implement without a cache, stage by stage. The
// thermal kernel is built with thermalest.NewKernel rather than the
// process-wide KernelFor cache, so every op pays the kernel build the way a
// fresh tafpga process does; the kernel is the same either way.
func implementTraced(tr *tracer, nl *netlist.Netlist, dev *coffe.Device, opts flow.Options) (*flow.Implementation, error) {
	end := tr.begin("activity.estimate")
	act := activity.Estimate(nl, opts.PIDensity)
	end()

	end = tr.begin("pack.pack")
	packed, err := pack.Pack(nl, dev.Arch.N, dev.Arch.ClusterInputs)
	end()
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}

	params := dev.Arch
	if opts.ChannelTracks > 0 {
		params.ChannelTracks = opts.ChannelTracks
	}
	end = tr.begin("arch.build")
	grid, err := arch.Build(params, len(packed.Clusters), len(packed.BRAMs), len(packed.DSPs))
	end()
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}

	var placed *place.Placement
	if tp := opts.ThermalPlace; tp.Weight > 0 {
		end = tr.begin("thermalest.kernel")
		tc, err := thermalCost(nl, dev, grid, act, tp)
		end()
		if err != nil {
			return nil, fmt.Errorf("thermal place: %w", err)
		}
		end = tr.begin("place.thermal_anneal")
		placed, err = place.PlaceThermal(packed, grid, opts.Seed, opts.PlaceEffort, tc)
		end()
		if err != nil {
			return nil, fmt.Errorf("place: %w", err)
		}
	} else {
		end = tr.begin("place.anneal")
		placed, err = place.Place(packed, grid, opts.Seed, opts.PlaceEffort)
		end()
		if err != nil {
			return nil, fmt.Errorf("place: %w", err)
		}
	}

	end = tr.begin("route.graph")
	graph := flow.BuildGraph(grid)
	end()
	end = tr.begin("route.route")
	routed, err := route.Route(placed, graph, opts.Router)
	end()
	if err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	tr.count("route.iters", int64(routed.Iters))
	tr.count("route.wirelength", int64(wireLength(routed)))

	return assembleTraced(tr, nl, dev, grid, packed, placed, routed, act)
}

// thermalCost mirrors the flow's thermal-placement inputs: a leakage-only
// thermal model of the grid, its influence kernel, and per-block powers.
func thermalCost(nl *netlist.Netlist, dev *coffe.Device, grid *arch.Grid,
	act []activity.Stats, tp flow.ThermalPlace) (place.ThermalCost, error) {
	base := 0.0
	for idx := 0; idx < grid.NumTiles(); idx++ {
		base += dev.TileLeak(grid.ClassAt(idx), 25)
	}
	th, err := hotspot.NewModel(grid.W, grid.H, base)
	if err != nil {
		return place.ThermalCost{}, err
	}
	k, err := thermalest.NewKernel(th, tp.KernelRadius)
	if err != nil {
		return place.ThermalCost{}, err
	}
	return place.ThermalCost{Weight: tp.Weight, Kernel: k, BlockPowerUW: thermalest.BlockPowerUW(dev, nl, act)}, nil
}

// assembleTraced builds the three analysis models over a placement and
// routing, as the flow's assemble and AtVdd do.
func assembleTraced(tr *tracer, nl *netlist.Netlist, dev *coffe.Device, grid *arch.Grid, packed *pack.Result,
	placed *place.Placement, routed *route.Result, act []activity.Stats) (*flow.Implementation, error) {
	end := tr.begin("flow.assemble")
	an := sta.New(nl, dev, placed, routed)
	pm := power.New(dev, nl, placed, routed, act)
	th, err := hotspot.NewModel(grid.W, grid.H, pm.BasePowerUW(25))
	end()
	if err != nil {
		return nil, fmt.Errorf("thermal: %w", err)
	}
	return &flow.Implementation{
		Netlist: nl, Device: dev, Grid: grid, Packed: packed, Placed: placed,
		Routed: routed, Activity: act, Timing: an, Power: pm, Thermal: th,
	}, nil
}

func wireLength(r *route.Result) int {
	n := 0
	for _, nr := range r.Nets {
		n += nr.WireLenTiles
	}
	return n
}

// kernelChildren attributes the kernel time guardband.Stats measured inside
// an Algorithm-1 call to the sta, power and hotspot layers, and adds its
// work counts.
func kernelChildren(tr *tracer, s guardband.Stats) {
	tr.child("sta.analyze", time.Duration(s.STANs))
	tr.child("power.eval", time.Duration(s.PowerNs))
	tr.child("hotspot.solve", time.Duration(s.ThermalNs))
	tr.count("guardband.sta_probes", int64(s.STAProbes))
	tr.count("guardband.thermal_solves", int64(s.ThermalSolves))
	tr.count("guardband.lockstep_rounds", int64(s.LockstepIters))
	tr.count("guardband.retired_early", int64(s.RetiredEarly))
}

// runTraced is guardband.Run inside a guardband.run span.
func runTraced(tr *tracer, im *flow.Implementation, opts guardband.Options) (*guardband.Result, error) {
	end := tr.begin("guardband.run")
	res, err := guardband.Run(im.Timing, im.Power, im.Thermal, opts)
	if err == nil {
		kernelChildren(tr, res.Stats)
		tr.count("guardband.iterations", int64(res.Iterations))
	}
	end()
	return res, err
}

// batchTraced is guardband.RunBatch inside a guardband.batch span.
func batchTraced(tr *tracer, im *flow.Implementation, ambients []float64, opts guardband.Options) ([]*guardband.Result, error) {
	end := tr.begin("guardband.batch")
	rs, err := guardband.RunBatch(im.Timing, im.Power, im.Thermal, ambients, opts)
	if err == nil {
		for _, r := range rs {
			kernelChildren(tr, r.Stats)
			tr.count("guardband.iterations", int64(r.Iterations))
		}
	}
	end()
	return rs, err
}

// tracedLab is flow.VddLab with its per-rail derivation split into spans:
// coffe.Device.AtVdd (coffe.atvdd) and the model re-assembly
// (flow.assemble). It memoizes exactly as VddLab does.
type tracedLab struct {
	base  *flow.Implementation
	byVdd map[float64]*flow.Implementation
}

func newTracedLab(im *flow.Implementation) *tracedLab {
	return &tracedLab{base: im, byVdd: map[float64]*flow.Implementation{}}
}

func (l *tracedLab) nominal() float64 { return l.base.Device.Kit.Buf.Vdd }

func (l *tracedLab) at(tr *tracer, vdd float64) (*flow.Implementation, error) {
	if vdd == l.nominal() {
		return l.base, nil
	}
	if im, ok := l.byVdd[vdd]; ok {
		return im, nil
	}
	end := tr.begin("coffe.atvdd")
	dev, err := l.base.Device.AtVdd(vdd)
	end()
	tr.count("coffe.atvdd_calls", 1)
	if err != nil {
		return nil, fmt.Errorf("flow: rail %.3f V: %w", vdd, err)
	}
	b := l.base
	im, err := assembleTraced(tr, b.Netlist, dev, b.Grid, b.Packed, b.Placed, b.Routed, b.Activity)
	if err != nil {
		return nil, err
	}
	l.byVdd[vdd] = im
	return im, nil
}

// minEnergy is VddLab.MinEnergy inside a guardband.energy span; the rail
// derivations and the kernels are its children, so the span's self time is
// the search itself.
func (l *tracedLab) minEnergy(tr *tracer, opts guardband.EnergyOptions) (*guardband.EnergyResult, error) {
	opts.NominalVddV = l.nominal()
	ambientC := opts.AmbientC
	opts.ModelsAt = func(vdd float64) (guardband.EnergyModels, error) {
		v, err := l.at(tr, vdd)
		if err != nil {
			return guardband.EnergyModels{}, err
		}
		if err := v.Device.Kit.OperableAt(ambientC); err != nil {
			return guardband.EnergyModels{}, err
		}
		return guardband.EnergyModels{Timing: v.Timing, Power: v.Power, Thermal: v.Thermal}, nil
	}
	end := tr.begin("guardband.energy")
	res, err := guardband.RunEnergy(opts)
	if err == nil {
		kernelChildren(tr, res.Stats)
		tr.count("guardband.iterations", int64(res.Iterations))
		tr.count("guardband.energy_probes", int64(res.Probes))
	}
	end()
	return res, err
}

// physics returns the JSON of a simulated output with its wall-clock
// fields zeroed: the bytes the digests and identity checks compare. JSON
// float encoding round-trips exactly, so equal bytes mean equal values.
func physics(v any) []byte {
	switch r := v.(type) {
	case *guardband.Result:
		c := *r
		c.Stats = untimed(c.Stats)
		v = c
	case []*guardband.Result:
		cs := make([]guardband.Result, len(r))
		for i, x := range r {
			cs[i] = *x
			cs[i].Stats = untimed(x.Stats)
		}
		v = cs
	case *guardband.EnergyResult:
		c := *r
		c.Stats = untimed(c.Stats)
		v = c
	case experiments.BenchResult:
		r.Stats = untimed(r.Stats)
		v = r
	case []experiments.BenchResult:
		cs := append([]experiments.BenchResult(nil), r...)
		for i := range cs {
			cs[i].Stats = untimed(cs[i].Stats)
		}
		v = cs
	case *flow.Implementation:
		v = struct {
			TileOf         []int
			Cost           float64
			Iters, MaxOcc  int
			WireLenTiles   int
			GridW, GridH   int
			Clusters, Nets int
		}{r.Placed.TileOf, r.Placed.Cost, r.Routed.Iters, r.Routed.MaxOcc, wireLength(r.Routed),
			r.Grid.W, r.Grid.H, len(r.Packed.Clusters), len(r.Routed.Nets)}
	}
	b, err := json.Marshal(v)
	if err != nil {
		// A NaN or Inf output: keep the error text so both sides of an
		// identity check still compare.
		return []byte("unencodable: " + err.Error())
	}
	return b
}

func untimed(s guardband.Stats) guardband.Stats {
	s.STANs, s.PowerNs, s.ThermalNs = 0, 0, 0
	return s
}

// digest accumulates physics bytes into one run digest.
type digest struct {
	sum [32]byte
	n   int
}

func (d *digest) add(b []byte) {
	h := sha256.New()
	h.Write(d.sum[:])
	h.Write(b)
	copy(d.sum[:], h.Sum(nil))
	d.n++
}

func (d *digest) String() string { return fmt.Sprintf("%x (%d outputs)", d.sum[:8], d.n) }

// checkFmax is the fmax objective's output check: Algorithm 1 converged,
// and the guardbanded clock is no slower than the worst-case baseline
// whenever the die stays within T_worst.
func checkFmax(ambientC float64, r *guardband.Result, opts guardband.Options) error {
	if !r.Converged {
		return fmt.Errorf("guardband at %g°C did not converge in %d iterations", ambientC, r.Iterations)
	}
	return checkBaseline(ambientC, hotspot.Max(r.Temps)+opts.DeltaTC, r.FmaxMHz, r.BaselineMHz, opts.WorstCaseC)
}

// checkBaseline asserts fmax ≥ the worst-case clock when the hottest
// margined tile is at or below T_worst. Delay rises with temperature, so
// the property must hold there; above it (a 100 °C ambient plus
// self-heating) the baseline is optimistic and the check does not apply.
func checkBaseline(ambientC, hotC, fmax, baseline, worstC float64) error {
	if hotC <= worstC && fmax < baseline {
		return fmt.Errorf("guardband at %g°C (hottest tile %.2f°C): fmax %.3f MHz below the worst-case %.3f MHz",
			ambientC, hotC, fmax, baseline)
	}
	return nil
}

// checkEnergy is the min-energy objective's check: the search found a
// feasible rail at or below nominal that still meets its target.
func checkEnergy(r *guardband.EnergyResult) error {
	switch {
	case !r.Feasible:
		return fmt.Errorf("min-energy at %g°C: target %.3f MHz infeasible", r.AmbientC, r.TargetMHz)
	case r.MinVddV > r.NominalVddV:
		return fmt.Errorf("min-energy at %g°C: rail %.4f V above nominal %.4f V", r.AmbientC, r.MinVddV, r.NominalVddV)
	case r.FmaxMHz < r.TargetMHz:
		return fmt.Errorf("min-energy at %g°C: %.3f MHz misses the %.3f MHz target", r.AmbientC, r.FmaxMHz, r.TargetMHz)
	case !r.Converged:
		return fmt.Errorf("min-energy at %g°C: winning probe did not converge", r.AmbientC)
	}
	return nil
}

// checkRoute checks that the router reported a legal result within its
// negotiation budget; route.Route itself fails on any node left above its
// capacity, so a returned result has MaxOcc within capacity everywhere.
func checkRoute(r *route.Result, opts route.Options) error {
	if r.Iters < 1 || r.Iters > opts.MaxIters || r.MaxOcc < 1 {
		return fmt.Errorf("route: %d iterations, max occupancy %d", r.Iters, r.MaxOcc)
	}
	return nil
}
