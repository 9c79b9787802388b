package route

import (
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

// routeBoth places one benchmark and routes it with both router
// implementations over the same graph.
func routeBoth(t *testing.T, name string, scale float64, seed int64, tracks int, opts Options) (*Result, *Result) {
	t.Helper()
	pl, g := routeSetup(t, name, scale, seed, tracks)
	got, gotErr := Route(pl, g, opts)
	ref, refErr := RouteReference(pl, g, opts)
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("error behavior diverged: opt=%v ref=%v", gotErr, refErr)
	}
	if gotErr != nil {
		if gotErr.Error() != refErr.Error() {
			t.Fatalf("error text diverged: opt=%q ref=%q", gotErr, refErr)
		}
		t.Skipf("unroutable with %d tracks (both implementations agree): %v", tracks, gotErr)
	}
	return got, ref
}

// requireSameResult demands byte-identical routed output: same iteration
// count, same peak occupancy, and per net the same wirelength and the same
// hop sequence to every sink.
func requireSameResult(t *testing.T, got, ref *Result) {
	t.Helper()
	if got.Iters != ref.Iters {
		t.Fatalf("Iters diverged: got %d ref %d", got.Iters, ref.Iters)
	}
	if got.MaxOcc != ref.MaxOcc {
		t.Fatalf("MaxOcc diverged: got %d ref %d", got.MaxOcc, ref.MaxOcc)
	}
	if len(got.Nets) != len(ref.Nets) {
		t.Fatalf("net count diverged: got %d ref %d", len(got.Nets), len(ref.Nets))
	}
	for d, rn := range ref.Nets {
		gn := got.Nets[d]
		if gn == nil {
			t.Fatalf("net %d missing from optimized result", d)
		}
		if gn.WireLenTiles != rn.WireLenTiles {
			t.Fatalf("net %d wirelength diverged: got %d ref %d", d, gn.WireLenTiles, rn.WireLenTiles)
		}
		if len(gn.Paths) != len(rn.Paths) {
			t.Fatalf("net %d sink count diverged", d)
		}
		for s, rp := range rn.Paths {
			gp := gn.Paths[s]
			if len(gp) != len(rp) {
				t.Fatalf("net %d→%d path length diverged: got %d ref %d", d, s, len(gp), len(rp))
			}
			for i := range rp {
				if gp[i] != rp[i] {
					t.Fatalf("net %d→%d hop %d diverged: got %+v ref %+v", d, s, i, gp[i], rp[i])
				}
			}
		}
	}
}

// equivCases are the benchmark/seed/width sweeps shared by the reference
// and worker-count equivalence tests: a logic-only design, macro designs,
// and a starved channel that forces multi-iteration congestion
// negotiation.
var equivCases = []struct {
	name   string
	bench  string
	scale  float64
	seed   int64
	tracks int
}{
	{"sha-small", "sha", 1.0 / 64, 1, 104},
	{"sha-seed7", "sha", 1.0 / 64, 7, 104},
	{"sha-tiny", "sha", 1.0 / 128, 3, 104},
	{"bram-macros", "mkPktMerge", 1.0 / 8, 2, 104},
	{"dsp-macros", "raygentop", 1.0 / 32, 5, 104},
	{"starved-negotiation", "sha", 1.0 / 32, 9, 56},
}

// TestRouteMatchesReference demands the optimized router reproduce the
// reference byte for byte.
func TestRouteMatchesReference(t *testing.T) {
	for _, tc := range equivCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, ref := routeBoth(t, tc.bench, tc.scale, tc.seed, tc.tracks, DefaultOptions())
			requireSameResult(t, got, ref)
		})
	}
}

// TestRouteWorkersMatchReference: Options.Workers is deprecated and
// ignored, so setting it must not change a single routed byte.
func TestRouteWorkersMatchReference(t *testing.T) {
	for _, tc := range equivCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions()
			opts.Workers = 8
			got, ref := routeBoth(t, tc.bench, tc.scale, tc.seed, tc.tracks, opts)
			requireSameResult(t, got, ref)
		})
	}
}

// TestRouteMatchesReferenceWideMargin exercises the widen-and-retry path by
// shrinking the initial search window to nothing.
func TestRouteMatchesReferenceWideMargin(t *testing.T) {
	opts := DefaultOptions()
	opts.BBoxMargin = 0
	got, ref := routeBoth(t, "sha", 1.0/64, 11, 104, opts)
	requireSameResult(t, got, ref)
}
