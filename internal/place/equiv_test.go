package place

import (
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
// single-tile-class paths are exercised too.
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
