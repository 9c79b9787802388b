package route

import "testing"

// requireSameResult demands byte-identical routed output: same iteration
// count, reroute count and peak occupancy, and per net the same wirelength
// and the same hop sequence to every sink.
func requireSameResult(t *testing.T, got, ref *Result) {
	t.Helper()
	if got.Iters != ref.Iters {
		t.Fatalf("Iters diverged: got %d ref %d", got.Iters, ref.Iters)
	}
	if got.Reroutes != ref.Reroutes {
		t.Fatalf("Reroutes diverged: got %d ref %d", got.Reroutes, ref.Reroutes)
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
			t.Fatalf("net %d missing from result", d)
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

// equivCases are the benchmark/seed/width sweeps of the worker-count
// equivalence test: a logic-only design, macro designs, and a starved
// channel that forces multi-round congestion negotiation.
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

// TestRouteWorkersMatchReference: Options.Workers is deprecated and
// ignored, so setting it must not change a single routed byte against the
// reference run with default options over the same graph.
func TestRouteWorkersMatchReference(t *testing.T) {
	for _, tc := range equivCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			pl, g := routeSetup(t, tc.bench, tc.scale, tc.seed, tc.tracks)
			ref, refErr := Route(pl, g, DefaultOptions())
			opts := DefaultOptions()
			opts.Workers = 8
			got, gotErr := Route(pl, g, opts)
			if (gotErr == nil) != (refErr == nil) {
				t.Fatalf("error behavior diverged: workers=8 %v, default %v", gotErr, refErr)
			}
			if refErr != nil {
				if gotErr.Error() != refErr.Error() {
					t.Fatalf("error text diverged: workers=8 %q, default %q", gotErr, refErr)
				}
				t.Fatalf("unroutable with %d tracks: %v", tc.tracks, refErr)
			}
			requireSameResult(t, got, ref)
		})
	}
}
