package circuits

import (
	"math"
	"testing"
	"testing/quick"

	"tafpga/internal/techmodel"
)

func testKit() *techmodel.Kit { return techmodel.Default22nm() }

func newSB(kit *techmodel.Kit) *Mux  { return NewMux("sb", kit, 12, 220, 8, 1.8) }
func newCB(kit *techmodel.Kit) *Mux  { return NewMux("cb", kit, 64, 27, 4, 1.8) }
func newLUT(kit *techmodel.Kit) *LUT { return NewLUT("lut", kit, 6, 8, 2, 1.8) }

func TestTwoLevelSplit(t *testing.T) {
	cases := []struct{ n, g1Min int }{{2, 2}, {4, 2}, {12, 4}, {25, 5}, {64, 8}}
	for _, c := range cases {
		g1, g2 := twoLevelSplit(c.n)
		if g1*g2 < c.n {
			t.Fatalf("split(%d) = %d×%d cannot select all inputs", c.n, g1, g2)
		}
	}
}

func TestMuxDelayIncreasesWithTemperature(t *testing.T) {
	m := newSB(testKit())
	prev := m.Delay(0)
	for temp := 5.0; temp <= 110; temp += 5 {
		cur := m.Delay(temp)
		if cur <= prev {
			t.Fatalf("mux delay must rise with T: %g at %g", cur, temp)
		}
		prev = cur
	}
}

func TestBiggerMuxIsSlowerAndBigger(t *testing.T) {
	kit := testKit()
	sb := newSB(kit)
	cb := NewMux("cb", kit, 64, 220, 8, 1.8) // same load, more inputs
	if cb.Delay(25) <= sb.Delay(25) {
		t.Fatal("64:1 mux should be slower than 12:1 at equal loads")
	}
	if cb.Area() <= sb.Area() {
		t.Fatal("64:1 mux should be larger")
	}
	if cb.Leakage(25) <= sb.Leakage(25) {
		t.Fatal("64:1 mux should leak more")
	}
}

func TestMuxSetVarsRoundTrip(t *testing.T) {
	m := newSB(testKit())
	want := []float64{0.5, 0.9, 3.3, 0.6}
	m.SetVars(want)
	got := m.Vars()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vars round trip: got %v want %v", got, want)
		}
	}
}

func TestMuxSetVarsPanicsOnWrongArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newSB(testKit()).SetVars([]float64{1, 2})
}

func TestMuxWireAreaFeedback(t *testing.T) {
	m := newSB(testKit())
	small := m.effWireUm()
	v := m.Vars()
	v[0], v[1], v[2] = 3, 6, 20
	m.SetVars(v)
	big := m.effWireUm()
	if big <= small {
		t.Fatalf("oversizing must lengthen the wire: %g vs %g", big, small)
	}
}

func TestMuxUpsizingBuffersSpeedsFixedLoad(t *testing.T) {
	m := newSB(testKit())
	base := m.Delay(25)
	v := m.Vars()
	v[2] *= 2
	m.SetVars(v)
	// Doubling the output buffer into a large wire load should not slow the
	// mux dramatically (self-loading and wire feedback partially offset).
	if d := m.Delay(25); d > base*1.25 {
		t.Fatalf("output buffer upsizing backfired: %g → %g", base, d)
	}
}

func TestMuxCEffPositiveAndGrowsWithWire(t *testing.T) {
	kit := testKit()
	short := NewMux("s", kit, 12, 30, 8, 1.8)
	long := NewMux("l", kit, 12, 300, 8, 1.8)
	if short.CEff() <= 0 {
		t.Fatal("CEff must be positive")
	}
	if long.CEff() <= short.CEff() {
		t.Fatal("longer wires must switch more capacitance")
	}
}

func TestNewMuxPanicsOnTinyFanIn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMux("bad", testKit(), 1, 10, 1, 1)
}

func TestLUTDelayIncreasesWithTemperature(t *testing.T) {
	l := newLUT(testKit())
	prev := l.Delay(0)
	for temp := 5.0; temp <= 110; temp += 5 {
		cur := l.Delay(temp)
		if cur <= prev {
			t.Fatalf("LUT delay must rise with T: %g at %g", cur, temp)
		}
		prev = cur
	}
}

func TestLUTMoreSensitiveThanSBMux(t *testing.T) {
	kit := testKit()
	l := newLUT(kit)
	m := newSB(kit)
	lutRatio := l.Delay(100) / l.Delay(0)
	sbRatio := m.Delay(100) / m.Delay(0)
	if lutRatio <= sbRatio {
		t.Fatalf("LUT (pass-tree) must be more temperature-sensitive than the SB mux: %g vs %g",
			lutRatio, sbRatio)
	}
}

func TestLUTDeeperIsSlower(t *testing.T) {
	kit := testKit()
	l4 := NewLUT("l4", kit, 4, 8, 2, 1.8)
	l6 := NewLUT("l6", kit, 6, 8, 2, 1.8)
	if l6.Delay(25) <= l4.Delay(25) {
		t.Fatal("6-LUT must be slower than 4-LUT")
	}
	if l6.Area() <= l4.Area() {
		t.Fatal("6-LUT must be larger (4× the config cells)")
	}
}

func TestLUTTreeDevices(t *testing.T) {
	kit := testKit()
	l := NewLUT("l", kit, 6, 8, 2, 1.8)
	if got := l.treeDevices(); got != (1<<7)-2 {
		t.Fatalf("treeDevices = %d, want %d", got, (1<<7)-2)
	}
}

func TestLUTBoundsShapeMatchesVars(t *testing.T) {
	for _, c := range []Sizable{newSB(testKit()), newLUT(testKit())} {
		lo, hi := c.Bounds()
		v := c.Vars()
		if len(lo) != len(v) || len(hi) != len(v) {
			t.Fatalf("%s: bounds arity mismatch", c.Name())
		}
		for i := range v {
			if !(lo[i] < hi[i]) {
				t.Fatalf("%s: degenerate bound %d", c.Name(), i)
			}
			if v[i] < lo[i] || v[i] > hi[i] {
				t.Fatalf("%s: default var %d = %g outside [%g,%g]", c.Name(), i, v[i], lo[i], hi[i])
			}
		}
	}
}

// Property: for any sizing inside bounds, delay/area/leakage/CEff stay
// positive and finite, and delay still rises with temperature.
func TestCircuitProperties(t *testing.T) {
	check := func(c Sizable, seeds []uint16) bool {
		lo, hi := c.Bounds()
		v := make([]float64, len(lo))
		for i := range v {
			frac := float64(seeds[i%len(seeds)]%1000) / 999
			v[i] = lo[i] + frac*(hi[i]-lo[i])
		}
		c.SetVars(v)
		d25, d100 := c.Delay(25), c.Delay(100)
		ok := d25 > 0 && d100 > d25 &&
			c.Area() > 0 && c.Leakage(25) > 0 && c.CEff() > 0 &&
			!math.IsInf(d100, 0) && !math.IsNaN(d100)
		return ok
	}
	f := func(a, b, c2, d, e uint16) bool {
		seeds := []uint16{a, b, c2, d, e}
		return check(newSB(testKit()), seeds) &&
			check(newCB(testKit()), seeds) &&
			check(newLUT(testKit()), seeds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
