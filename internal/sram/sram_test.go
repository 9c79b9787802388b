package sram

import (
	"math"
	"testing"

	"tafpga/internal/techmodel"
)

func testCore(sizingC float64) *Core {
	return NewCore("bram", techmodel.Default22nm(), DefaultConfig(), sizingC)
}

func TestConfigGeometry(t *testing.T) {
	c := DefaultConfig()
	if c.Rows()*c.Cols() != c.Words*c.WordBits {
		t.Fatalf("geometry mismatch: %d×%d vs %d words × %d bits", c.Rows(), c.Cols(), c.Words, c.WordBits)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{Words: 0, WordBits: 32, ColMux: 4, SenseMV: 100, CellWidthUm: 1, CellHeightUm: 0.5},
		{Words: 1024, WordBits: 32, ColMux: 3, SenseMV: 100, CellWidthUm: 1, CellHeightUm: 0.5},
		{Words: 1024, WordBits: 32, ColMux: 4, SenseMV: 0, CellWidthUm: 1, CellHeightUm: 0.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestDelayIncreasesWithTemperature(t *testing.T) {
	c := testCore(25)
	prev := c.Delay(0)
	for temp := 5.0; temp <= 100; temp += 5 {
		cur := c.Delay(temp)
		if math.IsInf(cur, 1) {
			t.Fatalf("default core infeasible at %g°C", temp)
		}
		if cur <= prev {
			t.Fatalf("BRAM delay must rise with T: %g at %g", cur, temp)
		}
		prev = cur
	}
}

func TestMarginFeasibleOverOperatingRange(t *testing.T) {
	c := testCore(25)
	for temp := 0.0; temp <= 100; temp += 10 {
		if !c.MarginOK(temp) {
			t.Fatalf("default 25°C core loses sense margin at %g°C", temp)
		}
	}
}

func TestLeakFractionGrowsWithTemperature(t *testing.T) {
	c := testCore(25)
	if !(c.leakFraction(100) > c.leakFraction(25) && c.leakFraction(25) > c.leakFraction(0)) {
		t.Fatal("bitline leak fraction must grow with temperature")
	}
}

func TestWiderCellsReduceLeakFraction(t *testing.T) {
	// Pelgrom: wider cells vary less, so the weakest-cell tail shrinks
	// faster than the read current changes.
	narrow := testCore(25)
	wide := testCore(25)
	v := wide.Vars()
	v[0] *= 2.5
	wide.SetVars(v)
	if wide.leakFraction(100) >= narrow.leakFraction(100) {
		t.Fatalf("upsizing cells must improve the leak fraction: %g vs %g",
			wide.leakFraction(100), narrow.leakFraction(100))
	}
}

func TestInfeasibleSizingIsRejected(t *testing.T) {
	// A core with minimum-width cells sized for a hot corner must violate
	// the compiler margin and report infinite delay during sizing.
	c := testCore(100)
	v := c.Vars()
	lo, _ := c.Bounds()
	v[0] = lo[0]
	c.SetVars(v)
	if fr := c.leakFraction(100); fr <= maxSizingLeakFraction {
		t.Skipf("minimum cell unexpectedly feasible (fraction %.2f); calibration drifted", fr)
	}
	if !math.IsInf(c.Delay(100), 1) {
		t.Fatal("infeasible margin must yield infinite delay")
	}
}

func TestSubLinearCellCurrent(t *testing.T) {
	c := testCore(25)
	i1 := c.cellCurrent(25)
	v := c.Vars()
	v[0] *= 2
	c.SetVars(v)
	i2 := c.cellCurrent(25)
	if !(i2 > i1) {
		t.Fatal("wider cells must drive more current")
	}
	if i2 >= 1.95*i1 {
		t.Fatalf("cell current must be sub-linear in width: %g vs %g", i2, i1)
	}
}

func TestAreaAndLeakagePositiveAndGrowWithCells(t *testing.T) {
	c := testCore(25)
	if c.Area() <= 0 || c.Leakage(25) <= 0 || c.CEff() <= 0 {
		t.Fatal("area/leakage/CEff must be positive")
	}
	if c.Leakage(100) <= c.Leakage(25) {
		t.Fatal("leakage must grow with temperature")
	}
	big := NewCore("big", techmodel.Default22nm(),
		Config{Words: 4096, WordBits: 32, ColMux: 4, SenseMV: 200, CellWidthUm: 1.7, CellHeightUm: 0.5}, 25)
	if big.Area() <= c.Area() {
		t.Fatal("4× capacity must be larger")
	}
}

func TestSetVarsPanicsOnWrongArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testCore(25).SetVars([]float64{1, 2, 3})
}

func TestDecoderScalesWithRows(t *testing.T) {
	small := NewCore("s", techmodel.Default22nm(),
		Config{Words: 256, WordBits: 32, ColMux: 4, SenseMV: 200, CellWidthUm: 1.7, CellHeightUm: 0.5}, 25)
	large := NewCore("l", techmodel.Default22nm(),
		Config{Words: 4096, WordBits: 32, ColMux: 4, SenseMV: 200, CellWidthUm: 1.7, CellHeightUm: 0.5}, 25)
	if large.Delay(25) <= small.Delay(25) {
		t.Fatal("more rows must be slower (decoder + bitline)")
	}
}

// TestWeakLeakCacheMatchesClosedForm pins the cached weakest-cell factor:
// after every way a core's cell width or kit can change, weakLeakCurrent
// must equal the uncached closed form to the bit. Kit.AtVdd keeps the SRAM
// flavor, so a kit with a different SRAM subthreshold slope is what shows a
// stale factor after WithKit.
func TestWeakLeakCacheMatchesClosedForm(t *testing.T) {
	nominal := techmodel.Default22nm()
	lowVdd, err := nominal.AtVdd(0.72)
	if err != nil {
		t.Fatal(err)
	}
	skewed := *nominal
	skewed.SRAM.SubSlope *= 1.2
	skewed.SRAM.Name += "-skewed"
	kits := []*techmodel.Kit{nominal, lowVdd, &skewed}
	temps := []float64{-10, 25, 70, 120}

	check := func(stage string, c *Core) {
		t.Helper()
		rows := c.cfg.Rows()
		for _, tc := range temps {
			want := techmodel.ExpectedWeakestLeak(&c.kit.SRAM, c.wCell, tc, rows) / c.kit.SRAM.Vdd * 1e-3
			if got := c.weakLeakCurrent(tc); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (kit %s, wCell %g, %g °C): cached %v, closed form %v",
					stage, c.kit.SRAM.Name, c.wCell, tc, got, want)
			}
		}
	}

	lo, hi := testCore(25).Bounds()
	const steps = 8
	for ki, kit := range kits {
		c := NewCore("bram", kit, DefaultConfig(), 25)
		check("NewCore", c)
		for i := 0; i <= steps; i++ {
			v := c.Vars()
			v[0] = lo[0] + (hi[0]-lo[0])*float64(i)/steps
			c.SetVars(v)
			check("SetVars changing wCell", c)
			v[1], v[4] = hi[1], lo[4]
			c.SetVars(v)
			check("SetVars keeping wCell", c)
			// Alternate between the two other kits.
			other := kits[(ki+i%2+1)%len(kits)]
			check("WithKit", c.WithKit(other))
			check("WithKit source", c)
		}
	}
}
