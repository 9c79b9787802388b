package place

import (
	"math/rand"
	"testing"

	"tafpga/internal/arch"
	"tafpga/internal/coffe"
)

func tinyGrid(t *testing.T) *arch.Grid {
	t.Helper()
	g, err := arch.Build(coffe.DefaultParams(), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPlaceMatchesReference drives the optimized annealer and the retained
// seed annealer over a spread of benchmarks, scales, seeds, and efforts and
// demands byte-identical output: same TileOf for every block and the same
// Cost bit pattern. The set includes a logic-only design (no BRAM/DSP
// macros — "sha" at small scale) and a macro-heavy one, so the degenerate
// single-tile-class paths are exercised too, and a design whose high-fanout
// nets run the span kernel over more than 10 endpoints.
func TestPlaceMatchesReference(t *testing.T) {
	cases := []struct {
		bench  string
		scale  float64
		seeds  []int64
		effort float64
	}{
		{"sha", 1.0 / 64, []int64{1, 7, 42}, 0.3},       // logic + IO only
		{"sha", 1.0 / 128, []int64{3}, 1.0},             // tiny, full effort
		{"mkPktMerge", 1.0 / 8, []int64{2, 11}, 0.3},    // BRAM macros
		{"raygentop", 1.0 / 32, []int64{5}, 0.5},        // DSP macros
		{"stereovision0", 1.0 / 64, []int64{1, 9}, 0.2}, // mixed
		{"mkDelayWorker32B", 1.0 / 16, []int64{4}, 0.2}, // 11 nets over 10 endpoints
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.bench, func(t *testing.T) {
			t.Parallel()
			packed, grid := testSetup(t, tc.bench, tc.scale)
			for _, seed := range tc.seeds {
				ref, err := PlaceReference(packed, grid, seed, tc.effort)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Place(packed, grid, seed, tc.effort)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != ref.Cost {
					t.Fatalf("seed %d: cost diverged: got %v ref %v", seed, got.Cost, ref.Cost)
				}
				if len(got.TileOf) != len(ref.TileOf) {
					t.Fatalf("seed %d: TileOf length %d vs %d", seed, len(got.TileOf), len(ref.TileOf))
				}
				for i := range got.TileOf {
					if got.TileOf[i] != ref.TileOf[i] {
						t.Fatalf("seed %d: block %d placed on tile %d, reference says %d",
							seed, i, got.TileOf[i], ref.TileOf[i])
					}
				}
			}
		})
	}
}

// TestPlaceReferenceErrorsAgree checks both implementations reject an
// overcommitted grid the same way.
func TestPlaceReferenceErrorsAgree(t *testing.T) {
	packed, _ := testSetup(t, "sha", 1.0/8)
	tiny := tinyGrid(t)
	_, errOpt := Place(packed, tiny, 1, 0.1)
	_, errRef := PlaceReference(packed, tiny, 1, 0.1)
	if (errOpt == nil) != (errRef == nil) {
		t.Fatalf("error behavior diverged: opt=%v ref=%v", errOpt, errRef)
	}
	if errOpt != nil && errOpt.Error() != errRef.Error() {
		t.Fatalf("error text diverged: opt=%q ref=%q", errOpt, errRef)
	}
}

// TestNetsAtListAscending pins the invariant tryMove's merge relies on:
// every entity's slice of netsAtList is strictly ascending, so the merged
// touched-net list comes out in the ascending order the seed's sort gave,
// with no net twice.
func TestNetsAtListAscending(t *testing.T) {
	for _, tc := range []struct {
		bench string
		scale float64
	}{
		{"sha", 1.0 / 64},
		{"mkPktMerge", 1.0 / 8},
		{"raygentop", 1.0 / 32},
	} {
		packed, grid := testSetup(t, tc.bench, tc.scale)
		a, _, err := newAnnealer(packed, grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		for ei := range a.ents {
			nets := a.netsAtList[a.netsAtStart[ei]:a.netsAtStart[ei+1]]
			for k := 1; k < len(nets); k++ {
				if nets[k] <= nets[k-1] {
					t.Fatalf("%s: entity %d nets not strictly ascending: %v", tc.bench, ei, nets)
				}
			}
		}
	}
}

// bruteHPWL is the weighted half-perimeter of a point set found the slow
// way: each axis's span is the largest distance between any two points.
func bruteHPWL(weight float64, pts []point) float64 {
	spanX, spanY := int32(0), int32(0)
	for _, p := range pts {
		for _, q := range pts {
			if d := p.x - q.x; d > spanX {
				spanX = d
			}
			if d := p.y - q.y; d > spanY {
				spanY = d
			}
		}
	}
	return weight * float64(spanX+spanY)
}

// spanAnnealer is an annealer holding only the nets and positions the span
// kernel reads: one net per point set, all endpoints distinct entities.
func spanAnnealer(weights []float64, nets [][]point) *annealer {
	a := &annealer{endsStart: []int32{0}, weight: weights}
	for _, pts := range nets {
		for _, p := range pts {
			a.endsList = append(a.endsList, int32(len(a.pos)))
			a.pos = append(a.pos, p)
		}
		a.endsStart = append(a.endsStart, int32(len(a.endsList)))
	}
	return a
}

// TestNetSpanCostMatchesBruteForce holds the branch-free span kernel to a
// brute-force HPWL on degenerate nets (one tile, one row, one column,
// repeated coordinates, two endpoints), on random high-fanout nets, and on
// every net of a design with nets over 10 endpoints, before and after the
// entities are scattered.
func TestNetSpanCostMatchesBruteForce(t *testing.T) {
	nets := [][]point{
		{{3, 4}, {3, 4}, {3, 4}, {3, 4}},                         // one tile
		{{1, 5}, {7, 5}, {4, 5}, {0, 5}, {7, 5}},                 // one row
		{{2, 9}, {2, 0}, {2, 3}, {2, 9}},                         // one column
		{{6, 6}, {1, 2}, {6, 6}, {1, 2}, {6, 2}, {1, 6}, {6, 6}}, // repeated coordinates
		{{0, 0}, {12, 7}},                                        // two endpoints
	}
	rng := rand.New(rand.NewSource(1))
	for n := 11; n <= 40; n += 7 {
		pts := make([]point, n)
		for i := range pts {
			pts[i] = point{int32(rng.Intn(30)), int32(rng.Intn(30))}
		}
		nets = append(nets, pts)
	}
	weights := make([]float64, len(nets))
	for i := range weights {
		weights[i] = 1 + float64(i)*0.37
	}
	a := spanAnnealer(weights, nets)
	for ni, pts := range nets {
		if got, want := a.netSpanCost(int32(ni)), bruteHPWL(weights[ni], pts); got != want {
			t.Errorf("net %d (%d endpoints): span cost %v, brute force %v", ni, len(pts), got, want)
		}
	}

	packed, grid := testSetup(t, "mkDelayWorker32B", 1.0/16)
	a, _, err := newAnnealer(packed, grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		big := 0
		for ni := range a.weight {
			ends := a.endsList[a.endsStart[ni]:a.endsStart[ni+1]]
			if len(ends) > 10 {
				big++
			}
			pts := make([]point, len(ends))
			for k, ei := range ends {
				pts[k] = a.pos[ei]
			}
			if got, want := a.netSpanCost(int32(ni)), bruteHPWL(a.weight[ni], pts); got != want {
				t.Fatalf("%s: net %d (%d endpoints): span cost %v, brute force %v", stage, ni, len(ends), got, want)
			}
		}
		if big == 0 {
			t.Fatalf("%s: no net over 10 endpoints; the high-fanout case is not exercised", stage)
		}
	}
	check("initial placement")
	for ei := range a.pos {
		a.pos[ei] = a.tileXY[rng.Intn(len(a.tileXY))]
	}
	check("scattered")
}
