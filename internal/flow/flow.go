// Package flow orchestrates the full implementation pipeline of Fig. 5(c):
// activity estimation, packing, grid construction, timing-driven placement,
// PathFinder routing, and the assembly of the temperature-aware timing and
// power models — producing an Implementation that the guardbanding
// algorithm and the experiments operate on.
package flow

import (
	"context"
	"fmt"

	"tafpga/internal/activity"
	"tafpga/internal/arch"
	"tafpga/internal/bench"
	"tafpga/internal/coffe"
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

// Options tunes the implementation flow.
type Options struct {
	// Seed drives the deterministic random streams (placement).
	Seed int64
	// PlaceEffort scales the annealing move budget (1.0 = default).
	PlaceEffort float64
	// PIDensity is the primary-input transition density for activity
	// estimation.
	PIDensity float64
	// Router carries the PathFinder settings.
	Router route.Options
	// ChannelTracks optionally overrides the architecture channel width
	// for the routing graph (0 keeps the device's Table I value). Tests
	// use smaller widths to keep graphs small; the device timing model is
	// unaffected.
	ChannelTracks int
	// Cache, if non-nil, memoizes place-and-route results by content key
	// (netlist, architecture, seed, effort, router options) so repeated
	// sweeps and CLI invocations skip the front-end entirely. On a hit the
	// returned Implementation carries a nil Routed.Graph — the downstream
	// models never read it.
	Cache *Cache
	// Ctx, when non-nil, cancels the flow between pipeline stages (after
	// packing, before placement, and before routing). A nil Ctx never
	// cancels. Cancellation cannot leave a partially built Implementation:
	// Implement returns the wrapped context error instead.
	Ctx context.Context
	// ThermalPlace configures thermal-aware placement. Unlike the
	// wall-clock knobs (Router.Workers, sweep batching) these values change
	// the produced bytes, so they are part of the flow-cache content key.
	ThermalPlace ThermalPlace
}

// ThermalPlace configures the thermal term of the placement cost
// (DESIGN.md §16).
type ThermalPlace struct {
	// Weight scales the thermal objective relative to wirelength; 0 (the
	// default) reproduces the thermally-oblivious flow byte for byte.
	Weight float64
	// KernelRadius truncates the influence kernel; <= 0 selects
	// thermalest.DefaultRadius.
	KernelRadius int
}

// enabled reports whether the thermal term participates in placement.
func (t ThermalPlace) enabled() bool { return t.Weight > 0 }

// effectiveRadius resolves the radius default, so the flow-cache key and
// the kernel builder agree on what radius 0 means.
func (t ThermalPlace) effectiveRadius() int {
	if t.KernelRadius > 0 {
		return t.KernelRadius
	}
	return thermalest.DefaultRadius
}

// checkCtx reports the options' context error, if any, wrapped for the
// flow's error namespace.
func (o Options) checkCtx(stage string) error {
	if o.Ctx == nil {
		return nil
	}
	if err := o.Ctx.Err(); err != nil {
		return fmt.Errorf("flow: %s: %w", stage, err)
	}
	return nil
}

// DefaultOptions returns the standard flow settings.
func DefaultOptions() Options {
	return Options{Seed: 1, PlaceEffort: 1.0, PIDensity: 0.12, Router: route.DefaultOptions()}
}

// BenchOptions is the flow recipe for a named benchmark: the placement
// seed derived from its name (the one bench.Generate builds its netlist
// with), its profile's primary-input density and the default router. Every
// command and the public API build a named benchmark from it, so a
// design's numbers do not depend on which of them printed them.
func BenchOptions(p bench.Profile) Options {
	opts := DefaultOptions()
	opts.Seed = bench.SeedFor(p.Name)
	opts.PIDensity = p.PIDensity
	return opts
}

// Implementation bundles everything the guardbanding loop needs about one
// placed-and-routed design on one device.
type Implementation struct {
	Netlist  *netlist.Netlist
	Device   *coffe.Device
	Grid     *arch.Grid
	Packed   *pack.Result
	Placed   *place.Placement
	Routed   *route.Result
	Activity []activity.Stats
	Timing   *sta.Analyzer
	Power    *power.Model
	Thermal  *hotspot.Model
}

// Implement runs the full pipeline for a netlist on a device.
func Implement(nl *netlist.Netlist, dev *coffe.Device, opts Options) (*Implementation, error) {
	if nl.Sinks == nil {
		return nil, fmt.Errorf("flow: netlist %s is not frozen", nl.Name)
	}
	if err := opts.checkCtx("activity"); err != nil {
		return nil, err
	}
	act := activity.Estimate(nl, opts.PIDensity)

	packed, err := pack.Pack(nl, dev.Arch.N, dev.Arch.ClusterInputs)
	if err != nil {
		return nil, fmt.Errorf("flow: pack: %w", err)
	}

	params := dev.Arch
	if opts.ChannelTracks > 0 {
		params.ChannelTracks = opts.ChannelTracks
	}
	grid, err := arch.Build(params, len(packed.Clusters), len(packed.BRAMs), len(packed.DSPs))
	if err != nil {
		return nil, fmt.Errorf("flow: grid: %w", err)
	}

	var key string
	if opts.Cache != nil {
		if k, err := cacheKey(nl, dev, params, opts); err == nil {
			key = k
			if pay, ok := opts.Cache.lookup(key); ok {
				if placed, routed, ok := pay.restore(nl, grid, packed); ok {
					return assemble(Implementation{Netlist: nl, Grid: grid, Packed: packed,
						Placed: placed, Routed: routed, Activity: act}, dev)
				}
			}
		}
	}

	placeFn := place.Place
	if opts.ThermalPlace.enabled() {
		tc, err := thermalCost(nl, dev, grid, act, opts.ThermalPlace)
		if err != nil {
			return nil, fmt.Errorf("flow: thermal place: %w", err)
		}
		placeFn = func(p *pack.Result, g *arch.Grid, seed int64, effort float64) (*place.Placement, error) {
			return place.PlaceThermal(p, g, seed, effort, tc)
		}
	}
	if err := opts.checkCtx("place"); err != nil {
		return nil, err
	}
	placed, err := placeFn(packed, grid, opts.Seed, opts.PlaceEffort)
	if err != nil {
		return nil, fmt.Errorf("flow: place: %w", err)
	}

	if err := opts.checkCtx("route"); err != nil {
		return nil, err
	}
	graph := BuildGraph(grid)
	routed, err := route.Route(placed, graph, opts.Router)
	if err != nil {
		return nil, fmt.Errorf("flow: route: %w", err)
	}
	if key != "" {
		opts.Cache.store(key, snapshot(placed, routed))
	}

	return assemble(Implementation{Netlist: nl, Grid: grid, Packed: packed,
		Placed: placed, Routed: routed, Activity: act}, dev)
}

// thermalCost prepares thermal-aware placement inputs. The annealer needs
// the influence kernel *before* any placement exists; the base (leakage-
// only) power the thermal model calibrates against is power.BaseUW, a
// function of the grid alone, so the model built here matches assemble's
// and the kernel cache is shared with every later estimator use.
func thermalCost(nl *netlist.Netlist, dev *coffe.Device, grid *arch.Grid,
	act []activity.Stats, tp ThermalPlace) (place.ThermalCost, error) {
	th, err := hotspot.NewModel(grid.W, grid.H, power.BaseUW(dev, grid, 25))
	if err != nil {
		return place.ThermalCost{}, err
	}
	k, err := thermalest.KernelFor(th, tp.effectiveRadius())
	if err != nil {
		return place.ThermalCost{}, err
	}
	return place.ThermalCost{
		Weight:       tp.Weight,
		Kernel:       k,
		BlockPowerUW: thermalest.BlockPowerUW(dev, nl, act),
	}, nil
}

// assemble puts im on dev and builds its three analysis models (STA,
// power, and the thermal model calibrated to the base leakage power) over
// its placement and routing, which may be fresh, restored from the cache or
// shared with another implementation. Implement, WithDevice and AtVdd all
// build their models here.
func assemble(im Implementation, dev *coffe.Device) (*Implementation, error) {
	im.Device = dev
	im.Timing = sta.New(im.Netlist, dev, im.Placed, im.Routed)
	im.Power = power.New(dev, im.Netlist, im.Placed, im.Routed, im.Activity)
	th, err := hotspot.NewModel(im.Grid.W, im.Grid.H, power.BaseUW(dev, im.Grid, 25))
	if err != nil {
		return nil, fmt.Errorf("flow: thermal: %w", err)
	}
	im.Thermal = th
	return &im, nil
}

// BuildGraph exposes RRG construction so callers can reuse a graph across
// implementations on the same grid shape.
func BuildGraph(grid *arch.Grid) *route.Graph { return route.BuildGraph(grid) }

// Guardband runs Algorithm 1 on the implementation at the given ambient.
func (im *Implementation) Guardband(opts guardband.Options) (*guardband.Result, error) {
	return guardband.Run(im.Timing, im.Power, im.Thermal, opts)
}

// GuardbandBatch runs guardband.RunBatch on the implementation: Algorithm
// 1 at each ambient in turn, result l == Guardband at ambients[l].
//
// Deprecated: call Guardband per ambient; this stays only while tabench's
// guardband-warm deck calls it.
func (im *Implementation) GuardbandBatch(ambients []float64, opts guardband.Options) ([]*guardband.Result, error) {
	return guardband.RunBatch(im.Timing, im.Power, im.Thermal, ambients, opts)
}

// WithDevice re-targets the implementation onto another device of the same
// architecture (a different thermal corner), reusing the placement and
// routing: this is how the paper compares D25 vs D70 fabrics running the
// same mapped application (Fig. 8).
func (im *Implementation) WithDevice(dev *coffe.Device) (*Implementation, error) {
	if dev.Arch != im.Device.Arch {
		return nil, fmt.Errorf("flow: device architecture mismatch")
	}
	return assemble(*im, dev)
}
