package route

import (
	"slices"
	"testing"

	"tafpga/internal/arch"
	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/pack"
	"tafpga/internal/place"
)

// routeSetup packs and places one benchmark and builds its routing graph.
func routeSetup(t *testing.T, name string, scale float64, seed int64, tracks int) (*place.Placement, *Graph) {
	t.Helper()
	prof, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(prof.Scaled(scale), bench.SeedFor(name))
	if err != nil {
		t.Fatal(err)
	}
	packed, err := pack.Pack(nl, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	p := coffe.DefaultParams()
	p.ChannelTracks = tracks
	grid, err := arch.Build(p, len(packed.Clusters), len(packed.BRAMs), len(packed.DSPs))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(packed, grid, seed, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return pl, BuildGraph(grid)
}

// negotiationCases are starved channels that force PathFinder past round 1:
// the starved-negotiation fixture settles in a round or two, and the
// 40-track sha at 1/16 negotiates for several.
var negotiationCases = []struct {
	name   string
	scale  float64
	tracks int
}{
	{"starved-negotiation", 1.0 / 32, 56},
	{"long-negotiation", 1.0 / 16, 40},
}

// TestNegotiationLegalDeterministic routes each starved fixture twice:
// both runs must be legal and identical, and the reroute count must show
// that later rounds skipped some nets but not all of them.
func TestNegotiationLegalDeterministic(t *testing.T) {
	for _, tc := range negotiationCases {
		t.Run(tc.name, func(t *testing.T) {
			pl, g := routeSetup(t, "sha", tc.scale, 9, tc.tracks)
			requireLegalDeterministic(t, pl, g)
		})
	}
}

func requireLegalDeterministic(t *testing.T, pl *place.Placement, g *Graph) {
	a, err := Route(pl, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Route(pl, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprintResult(a), fingerprintResult(b); fa != fb {
		t.Fatal("two routes of the same placement differ")
	}
	if a.Reroutes != b.Reroutes {
		t.Fatalf("reroutes differ between runs: %d vs %d", a.Reroutes, b.Reroutes)
	}
	if a.Iters < 2 {
		t.Fatalf("fixture no longer negotiates: converged in %d round(s)", a.Iters)
	}
	nets := len(a.Nets)
	t.Logf("%d rounds, %d reroutes of %d nets", a.Iters, a.Reroutes, nets)
	if a.Reroutes <= 0 || a.Reroutes >= (a.Iters-1)*nets {
		t.Fatalf("reroutes %d outside (0, %d) for %d rounds of %d nets",
			a.Reroutes, (a.Iters-1)*nets, a.Iters, nets)
	}
	for d, nr := range a.Nets {
		for s, hops := range nr.Paths {
			if last := hops[len(hops)-1]; last.Kind != coffe.CBMux || last.Tile != pl.TileOf[s] {
				t.Fatalf("net %d→%d does not end at its sink's CB mux", d, s)
			}
		}
	}
}

// TestNegotiationSkippedNetsKeepTrees drives each starved fixture round by
// round. Round 1 routes every net; each later round must skip at least one
// net, count every net it routes as a reroute, and leave each net it skips
// with its node list and tree parents unchanged. The final trees must
// account for every node's occupancy and overuse none.
func TestNegotiationSkippedNetsKeepTrees(t *testing.T) {
	for _, tc := range negotiationCases {
		t.Run(tc.name, func(t *testing.T) {
			pl, g := routeSetup(t, "sha", tc.scale, 9, tc.tracks)
			requireSkippedTreesKept(t, pl, g)
		})
	}
}

func requireSkippedTreesKept(t *testing.T, pl *place.Placement, g *Graph) {
	opts := DefaultOptions()
	neg := newNegotiation(pl, g, &opts)
	nets := len(neg.tasks)

	rounds := 0
	for iter := 1; iter <= opts.MaxIters; iter++ {
		use := make([][]int32, nets)
		pars := make([][]int32, nets)
		for ti := range neg.tasks {
			use[ti] = slices.Clone(neg.prevUse[ti])
			pars[ti] = slices.Clone(neg.finalPars[ti])
		}
		before := neg.reroutes
		if err := neg.round(iter); err != nil {
			t.Fatal(err)
		}
		rounds = iter

		routed := 0
		for ti := range neg.tasks {
			if neg.routedIn[ti] == iter {
				routed++
				continue
			}
			if !slices.Equal(use[ti], neg.prevUse[ti]) || !slices.Equal(pars[ti], neg.finalPars[ti]) {
				t.Fatalf("round %d: skipped net %d changed its tree", iter, ti)
			}
		}
		if iter == 1 && routed != nets {
			t.Fatalf("round 1 routed %d of %d nets", routed, nets)
		}
		if iter > 1 {
			if routed != neg.reroutes-before {
				t.Fatalf("round %d: %d nets routed, reroute count moved by %d", iter, routed, neg.reroutes-before)
			}
			if routed == nets {
				t.Fatalf("round %d rerouted every net", iter)
			}
		}
		if !neg.congested() {
			break
		}
		neg.penalize()
	}
	if rounds < 2 {
		t.Fatalf("fixture no longer negotiates: converged in %d round(s)", rounds)
	}
	if neg.congested() {
		t.Fatalf("still congested after %d rounds", rounds)
	}

	// Legality from the trees themselves: recount every node's occupancy.
	occ := make([]int, g.numNodes)
	for ti := range neg.tasks {
		for _, n := range neg.prevUse[ti] {
			occ[n]++
		}
	}
	for n, c := range occ {
		if c != int(neg.nodes[n].occ) {
			t.Fatalf("node %d: trees hold %d nets, occupancy says %d", n, c, neg.nodes[n].occ)
		}
		if c > int(g.capacity[n]) {
			t.Fatalf("node %d overused: %d > %d", n, c, g.capacity[n])
		}
	}
}
