package place

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"tafpga/internal/arch"
	"tafpga/internal/hotspot"
	"tafpga/internal/pack"
	"tafpga/internal/thermalest"
)

// testKernel builds the truncated influence kernel for the grid's thermal
// model at the default radius.
func testKernel(t *testing.T, grid *arch.Grid) *thermalest.Kernel {
	t.Helper()
	m, err := hotspot.NewModel(grid.W, grid.H, 5e6)
	if err != nil {
		t.Fatal(err)
	}
	k, err := thermalest.KernelFor(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// testBlockPowers is a deterministic synthetic per-block power proxy.
func testBlockPowers(p *pack.Result) []float64 {
	pow := make([]float64, len(p.Netlist.Blocks))
	for b := range pow {
		pow[b] = 10 + float64(b%17)*7
	}
	return pow
}

// TestPlaceThermalZeroWeightIdentity pins the weight-0 contract: with the
// thermal term disabled — zero weight, or a missing kernel — PlaceThermal
// must be byte-identical to Place (same TileOf, same Cost bit pattern),
// because the baseline path consumes the identical RNG stream.
func TestPlaceThermalZeroWeightIdentity(t *testing.T) {
	cases := []struct {
		bench string
		scale float64
		seeds []int64
	}{
		{"sha", 1.0 / 64, []int64{1, 7, 42}},
		{"mkPktMerge", 1.0 / 8, []int64{2, 11}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.bench, func(t *testing.T) {
			t.Parallel()
			packed, grid := testSetup(t, tc.bench, tc.scale)
			kernel := testKernel(t, grid)
			powers := testBlockPowers(packed)
			for _, seed := range tc.seeds {
				ref, err := Place(packed, grid, seed, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				for _, cost := range []ThermalCost{
					{Weight: 0, Kernel: kernel, BlockPowerUW: powers},
					{Weight: 0.8, Kernel: nil, BlockPowerUW: powers},
				} {
					got, err := PlaceThermal(packed, grid, seed, 0.3, cost)
					if err != nil {
						t.Fatal(err)
					}
					if got.Cost != ref.Cost {
						t.Fatalf("seed %d weight %g: cost diverged: got %v ref %v",
							seed, cost.Weight, got.Cost, ref.Cost)
					}
					for i := range got.TileOf {
						if got.TileOf[i] != ref.TileOf[i] {
							t.Fatalf("seed %d weight %g: block %d on tile %d, baseline says %d",
								seed, cost.Weight, i, got.TileOf[i], ref.TileOf[i])
						}
					}
				}
			}
		})
	}
}

// TestPlaceThermalDeterministic pins run-to-run reproducibility of the
// thermal-aware path: same inputs, same bytes.
func TestPlaceThermalDeterministic(t *testing.T) {
	packed, grid := testSetup(t, "sha", 1.0/64)
	cost := ThermalCost{Weight: 0.5, Kernel: testKernel(t, grid), BlockPowerUW: testBlockPowers(packed)}
	a, err := PlaceThermal(packed, grid, 7, 0.3, cost)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlaceThermal(packed, grid, 7, 0.3, cost)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("cost not reproducible: %v vs %v", a.Cost, b.Cost)
	}
	for i := range a.TileOf {
		if a.TileOf[i] != b.TileOf[i] {
			t.Fatalf("block %d tile not reproducible: %d vs %d", i, a.TileOf[i], b.TileOf[i])
		}
	}
}

// TestPlaceThermalFlattensRises checks the thermal term does its job on
// the estimator's own metric: with a meaningful weight, the thermal-aware
// placement's Σ rise² is below the thermally-oblivious placement's for the
// same power deposition.
func TestPlaceThermalFlattensRises(t *testing.T) {
	packed, grid := testSetup(t, "stereovision0", 1.0/64)
	kernel := testKernel(t, grid)
	powers := testBlockPowers(packed)

	base, err := Place(packed, grid, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	therm, err := PlaceThermal(packed, grid, 1, 0.3,
		ThermalCost{Weight: 1.0, Kernel: kernel, BlockPowerUW: powers})
	if err != nil {
		t.Fatal(err)
	}

	objective := func(pl *Placement) float64 {
		tilePow := make([]float64, grid.NumTiles())
		for b, tile := range pl.TileOf {
			tilePow[tile] += powers[b]
		}
		est, err := thermalest.New(kernel, tilePow)
		if err != nil {
			t.Fatal(err)
		}
		return est.Objective()
	}
	ob, ot := objective(base), objective(therm)
	if ot >= ob {
		t.Fatalf("thermal placement did not flatten the rise field: Σrise² %g (thermal) vs %g (baseline)", ot, ob)
	}
}

// placementDigest hashes a placement's TileOf and the bit pattern of its
// Cost with FNV-1a, so a golden test can pin a whole placement in one word.
func placementDigest(pl *Placement) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, tile := range pl.TileOf {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(tile)))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pl.Cost))
	h.Write(buf[:])
	return h.Sum64()
}

// TestPlaceThermalGolden pins the thermal-aware annealer's output bit for
// bit. TestPlaceMatchesReference covers only the wirelength path, so any
// change to the shared move kernel that perturbs the thermal path (the
// touched-net order, the delta arithmetic, the RNG stream) shows up here.
// The digests were captured before the touched-net merge and the dense
// coordinate table replaced the stamp-and-sort kernel.
func TestPlaceThermalGolden(t *testing.T) {
	cases := []struct {
		bench  string
		scale  float64
		seed   int64
		weight float64
		want   uint64
	}{
		{"sha", 1.0 / 64, 7, 0.5, 0x75f87eb28ad0d38b},       // logic + IO only
		{"mkPktMerge", 1.0 / 8, 2, 0.8, 0x04086bc4280bfca8}, // BRAM macros
		{"raygentop", 1.0 / 32, 5, 1.0, 0xc3fcfc531675cd9a}, // DSP macros
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.bench, func(t *testing.T) {
			t.Parallel()
			packed, grid := testSetup(t, tc.bench, tc.scale)
			cost := ThermalCost{Weight: tc.weight, Kernel: testKernel(t, grid), BlockPowerUW: testBlockPowers(packed)}
			pl, err := PlaceThermal(packed, grid, tc.seed, 0.3, cost)
			if err != nil {
				t.Fatal(err)
			}
			if got := placementDigest(pl); got != tc.want {
				t.Fatalf("digest %#016x, want %#016x (cost %v)", got, tc.want, pl.Cost)
			}
		})
	}
}
