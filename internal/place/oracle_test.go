package place_test

// oracle_test.go is the flow-level oracle: the implementation flow composed
// from its public stages around the seed placer of reference_test.go, held
// against the placement, routing and guardband result of flow.Implement.

import (
	"fmt"
	"testing"

	"tafpga/internal/activity"
	"tafpga/internal/arch"
	"tafpga/internal/bench"
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
	"tafpga/internal/techmodel"
)

// referenceImplement is flow.Implement through the seed placer and
// route.Route, built from the flow's public stages. It never consults
// opts.Cache or opts.Ctx, and rejects thermal placement, which the seed
// placer does not have.
func referenceImplement(nl *netlist.Netlist, dev *coffe.Device, opts flow.Options) (*flow.Implementation, error) {
	if nl.Sinks == nil {
		return nil, fmt.Errorf("reference flow: netlist %s is not frozen", nl.Name)
	}
	if opts.ThermalPlace.Weight > 0 {
		return nil, fmt.Errorf("reference flow: the seed placer has no thermal term")
	}
	act := activity.Estimate(nl, opts.PIDensity)
	packed, err := pack.Pack(nl, dev.Arch.N, dev.Arch.ClusterInputs)
	if err != nil {
		return nil, fmt.Errorf("reference flow: pack: %w", err)
	}
	params := dev.Arch
	if opts.ChannelTracks > 0 {
		params.ChannelTracks = opts.ChannelTracks
	}
	grid, err := arch.Build(params, len(packed.Clusters), len(packed.BRAMs), len(packed.DSPs))
	if err != nil {
		return nil, fmt.Errorf("reference flow: grid: %w", err)
	}
	placed, err := place.PlaceReference(packed, grid, opts.Seed, opts.PlaceEffort)
	if err != nil {
		return nil, fmt.Errorf("reference flow: place: %w", err)
	}
	routed, err := route.Route(placed, flow.BuildGraph(grid), opts.Router)
	if err != nil {
		return nil, fmt.Errorf("reference flow: route: %w", err)
	}
	pm := power.New(dev, nl, placed, routed, act)
	th, err := hotspot.NewModel(grid.W, grid.H, pm.BasePowerUW(25))
	if err != nil {
		return nil, fmt.Errorf("reference flow: thermal: %w", err)
	}
	return &flow.Implementation{
		Netlist: nl, Device: dev, Grid: grid, Packed: packed, Placed: placed,
		Routed: routed, Activity: act, Timing: sta.New(nl, dev, placed, routed), Power: pm, Thermal: th,
	}, nil
}

// TestFlowReferenceMatchesOptimized is the flow-level equivalence check:
// the reference flow (seed placer + route.Route) and the optimized flow must
// produce identical placements, routings, and guardband results.
func TestFlowReferenceMatchesOptimized(t *testing.T) {
	d := coffe.MustSizeDevice(techmodel.Default22nm(), coffe.DefaultParams(), 25)
	prof, err := bench.ByName("raygentop")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(prof.Scaled(1.0/32), bench.SeedFor("raygentop"))
	if err != nil {
		t.Fatal(err)
	}
	opts := flow.DefaultOptions()
	opts.Seed = bench.SeedFor("raygentop")
	opts.PlaceEffort = 0.3
	opts.ChannelTracks = 104
	fast, err := flow.Implement(nl, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceImplement(nl, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Placed.Cost != ref.Placed.Cost {
		t.Fatalf("placement cost diverged: %v vs %v", fast.Placed.Cost, ref.Placed.Cost)
	}
	for i := range ref.Placed.TileOf {
		if fast.Placed.TileOf[i] != ref.Placed.TileOf[i] {
			t.Fatalf("TileOf diverged at block %d", i)
		}
	}
	if fast.Routed.Iters != ref.Routed.Iters || fast.Routed.MaxOcc != ref.Routed.MaxOcc {
		t.Fatal("routing metadata diverged")
	}
	for dd, rn := range ref.Routed.Nets {
		gn := fast.Routed.Nets[dd]
		if gn == nil || gn.WireLenTiles != rn.WireLenTiles || len(gn.Paths) != len(rn.Paths) {
			t.Fatalf("net %d diverged", dd)
		}
		for s, rp := range rn.Paths {
			gp := gn.Paths[s]
			if len(gp) != len(rp) {
				t.Fatalf("net %d→%d path length diverged", dd, s)
			}
			for i := range rp {
				if gp[i] != rp[i] {
					t.Fatalf("net %d→%d hop %d diverged", dd, s, i)
				}
			}
		}
	}
	ra, err := fast.Guardband(guardband.DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ref.Guardband(guardband.DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if ra.FmaxMHz != rb.FmaxMHz || ra.BaselineMHz != rb.BaselineMHz || ra.Iterations != rb.Iterations {
		t.Fatalf("oracle implementation diverges: %g/%g/%d vs %g/%g/%d",
			ra.FmaxMHz, ra.BaselineMHz, ra.Iterations, rb.FmaxMHz, rb.BaselineMHz, rb.Iterations)
	}
}
