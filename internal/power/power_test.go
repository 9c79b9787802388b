package power

import (
	"sync"
	"testing"

	"tafpga/internal/activity"
	"tafpga/internal/arch"
	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/pack"
	"tafpga/internal/place"
	"tafpga/internal/route"
	"tafpga/internal/sta"
	"tafpga/internal/techmodel"
)

var (
	once  sync.Once
	model *Model
)

func testModel(t *testing.T) *Model {
	t.Helper()
	once.Do(func() {
		params := coffe.DefaultParams()
		dev := coffe.MustSizeDevice(techmodel.Default22nm(), params, 25)
		prof, _ := bench.ByName("raygentop")
		nl, err := bench.Generate(prof.Scaled(1.0/32), 11)
		if err != nil {
			panic(err)
		}
		act := activity.Estimate(nl, 0.12)
		packed, err := pack.Pack(nl, params.N, params.ClusterInputs)
		if err != nil {
			panic(err)
		}
		gp := params
		gp.ChannelTracks = 104
		grid, err := arch.Build(gp, len(packed.Clusters), len(packed.BRAMs), len(packed.DSPs))
		if err != nil {
			panic(err)
		}
		pl, err := place.Place(packed, grid, 2, 0.3)
		if err != nil {
			panic(err)
		}
		rt, err := route.Route(pl, route.BuildGraph(grid), route.DefaultOptions())
		if err != nil {
			panic(err)
		}
		model = New(dev, nl, pl, rt, act)
	})
	return model
}

func TestVectorShapeAndPositivity(t *testing.T) {
	m := testModel(t)
	n := m.PL.Grid.NumTiles()
	p := m.VectorInto(100, sta.UniformTemps(n, 25), nil)
	if len(p) != n {
		t.Fatalf("vector length %d, want %d", len(p), n)
	}
	for i, v := range p {
		if v <= 0 {
			t.Fatalf("tile %d has non-positive power %g (leakage floor missing?)", i, v)
		}
	}
}

func TestDynamicScalesWithFrequency(t *testing.T) {
	m := testModel(t)
	n := m.PL.Grid.NumTiles()
	temps := sta.UniformTemps(n, 25)
	p100 := TotalUW(m.VectorInto(100, temps, nil))
	p200 := TotalUW(m.VectorInto(200, temps, nil))
	leak := m.BasePowerUW(25)
	dyn100 := p100 - leak
	dyn200 := p200 - leak
	if dyn100 <= 0 {
		t.Fatal("no dynamic power at 100 MHz")
	}
	if ratio := dyn200 / dyn100; ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("dynamic power must scale linearly with f: ratio %g", ratio)
	}
}

func TestLeakageGrowsWithTemperature(t *testing.T) {
	m := testModel(t)
	n := m.PL.Grid.NumTiles()
	cold := TotalUW(m.VectorInto(0.001, sta.UniformTemps(n, 25), nil))
	hot := TotalUW(m.VectorInto(0.001, sta.UniformTemps(n, 100), nil))
	if hot <= cold {
		t.Fatal("leakage-dominated power must grow with temperature")
	}
	// The power-temperature feedback the paper's intro describes: the
	// growth over 75 °C should be substantial (exponential leakage).
	if hot/cold < 1.8 {
		t.Fatalf("leakage growth over 75°C only %.2f×, expected ≥1.8×", hot/cold)
	}
}

func TestActiveTilesOutConsumeEmptyOnes(t *testing.T) {
	m := testModel(t)
	n := m.PL.Grid.NumTiles()
	p := m.VectorInto(200, sta.UniformTemps(n, 25), nil)
	// The busiest tile must dissipate more than the idle minimum.
	lo, hi := p[0], p[0]
	for _, v := range p {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 1.5*lo {
		t.Fatalf("no spatial power contrast: %g vs %g", lo, hi)
	}
}

func TestBasePowerMatchesIdleVector(t *testing.T) {
	m := testModel(t)
	n := m.PL.Grid.NumTiles()
	idle := TotalUW(m.VectorInto(0, sta.UniformTemps(n, 25), nil))
	base := m.BasePowerUW(25)
	if diff := idle - base; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("zero-frequency vector (%g) must equal base leakage (%g)", idle, base)
	}
}

func TestTotalUW(t *testing.T) {
	if TotalUW([]float64{1, 2, 3.5}) != 6.5 {
		t.Fatal("TotalUW broken")
	}
}

func TestReportMatchesVector(t *testing.T) {
	m := testModel(t)
	n := m.PL.Grid.NumTiles()
	temps := sta.UniformTemps(n, 40)
	const f = 150.0
	rep := m.Report(f, temps)
	total := TotalUW(m.VectorInto(f, temps, nil))
	if d := rep.TotalUW() - total; d > 1e-6 || d < -1e-6 {
		t.Fatalf("report total %g disagrees with vector total %g", rep.TotalUW(), total)
	}
	if rep.DynRoutingUW <= 0 || rep.DynLogicUW <= 0 || rep.LeakUW <= 0 {
		t.Fatalf("empty categories: %+v", rep)
	}
	// Interconnect should be a substantial share of FPGA dynamic power.
	dyn := rep.DynLogicUW + rep.DynRoutingUW + rep.DynMacroUW + rep.DynClockingUW
	if rep.DynRoutingUW < 0.2*dyn {
		t.Fatalf("routing power share %.2f implausibly small for an FPGA", rep.DynRoutingUW/dyn)
	}
}

// TestVectorIntoAllocatesNothing: with a right-sized dst, a power
// evaluation — dynamic plus per-tile leakage — allocates no objects, so
// Algorithm 1 re-evaluates power every iteration for free in the heap.
func TestVectorIntoAllocatesNothing(t *testing.T) {
	m := testModel(t)
	n := m.PL.Grid.NumTiles()
	temps := make([]float64, n)
	for i := range temps {
		temps[i] = 45 + 20*float64(i%m.PL.Grid.W)/float64(m.PL.Grid.W)
	}
	dst := m.VectorInto(100, temps, nil)
	if avg := testing.AllocsPerRun(20, func() { dst = m.VectorInto(100, temps, dst) }); avg != 0 {
		t.Fatalf("VectorInto allocates %.1f objects per warmed call, want 0", avg)
	}
}
