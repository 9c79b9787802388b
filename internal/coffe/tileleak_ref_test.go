package coffe

// tileleak_ref_test.go preserves the seed TileLeak verbatim, with the
// map-valued tile census it read. It re-characterized the whole standard-cell
// library per logic tile to read the flip-flop's leakage; TileLeak must
// match it bit for bit. It is test code only.

import (
	"math"
	"testing"

	"tafpga/internal/stdcell"
	"tafpga/internal/techmodel"
)

// tileCountsReference is the seed tile census.
func (p Params) tileCountsReference() map[ResourceKind]int {
	sbPerTile := p.ChannelTracks / (2 * p.SegmentLength) * 2 // both channel directions
	return map[ResourceKind]int{
		SBMux:       sbPerTile,
		CBMux:       p.ClusterInputs,
		LocalMux:    p.N * p.K,
		FeedbackMux: p.N,
		OutputMux:   2 * p.N,
		LUTA:        p.N,
	}
}

// TileLeakReference is the seed TileLeak.
func (d *Device) TileLeakReference(tile TileClass, tempC float64) float64 {
	counts := d.Arch.tileCountsReference()
	routing := float64(counts[SBMux])*d.Leak(SBMux, tempC) + float64(counts[CBMux])*d.Leak(CBMux, tempC)
	switch tile {
	case TileLogic:
		l := routing
		l += float64(counts[LocalMux]) * d.Leak(LocalMux, tempC)
		l += float64(counts[FeedbackMux]) * d.Leak(FeedbackMux, tempC)
		l += float64(counts[OutputMux]) * d.Leak(OutputMux, tempC)
		l += float64(counts[LUTA]) * d.Leak(LUTA, tempC)
		lib := stdcell.Characterize(d.Kit, tempC)
		l += float64(d.Arch.N) * lib.Cell(stdcell.DFF).LeakUW
		return l
	case TileBRAM:
		return routing + d.Leak(BRAM, tempC)
	case TileDSP:
		return routing + d.Leak(DSP, tempC)
	case TileIO, TileEmpty:
		return 0.3 * routing
	}
	panic("coffe: unknown tile class")
}

// TestTileLeakMatchesReference holds TileLeak to the seed for every tile
// class on the D25 and D70 devices and on D25 re-characterized at 0.7 V,
// at temperatures spanning the lookup tables and the clamped ends of the
// admitted ambient range [−55, 150] °C, including off-grid temperatures.
func TestTileLeakMatchesReference(t *testing.T) {
	kit := techmodel.Default22nm()
	d25 := sharedDevices(t)[25]
	d70 := MustSizeDevice(kit, DefaultParams(), 70)
	lowV, err := d25.AtVdd(0.7)
	if err != nil {
		t.Fatal(err)
	}
	classes := []TileClass{TileLogic, TileBRAM, TileDSP, TileIO, TileEmpty}
	for name, d := range map[string]*Device{"D25": d25, "D70": d70, "D25@0.7V": lowV} {
		for tempC := -55.0; tempC <= 150; tempC += 0.37 {
			for _, c := range classes {
				got, want := d.TileLeak(c, tempC), d.TileLeakReference(c, tempC)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %v at %g °C: TileLeak %v, seed %v", name, c, tempC, got, want)
				}
			}
		}
	}
}

// TestSoftTileAreaDeterministic: the logic tile area is a float sum over
// the tile census, so it must be summed in a fixed order to come out the
// same bits on every call. The seed summed over a map and returned two
// different values across a few thousand calls.
func TestSoftTileAreaDeterministic(t *testing.T) {
	d := sharedDevices(t)[25]
	first := d.SoftTileArea()
	for i := 0; i < 2000; i++ {
		if a := d.SoftTileArea(); math.Float64bits(a) != math.Float64bits(first) {
			t.Fatalf("call %d: SoftTileArea %v, first call %v", i, a, first)
		}
	}
}

// TestTileCountsMatchReference: the array census holds the seed map's
// counts, and 0 for the hard blocks the map left out.
func TestTileCountsMatchReference(t *testing.T) {
	p := DefaultParams()
	got, want := p.tileCounts(), p.tileCountsReference()
	for _, k := range Kinds() {
		if got[k] != want[k] {
			t.Fatalf("%v: %d per tile, seed %d", k, got[k], want[k])
		}
	}
}
