package flow_test

import (
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/oracle"
	"tafpga/internal/techmodel"
)

// TestFlowReferenceMatchesOptimized is the flow-level equivalence check:
// the oracle flow (seed placer + seed router) and the optimized flow must
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
	ref, err := oracle.Implement(nl, d, opts)
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
