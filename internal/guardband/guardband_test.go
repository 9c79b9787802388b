package guardband

import (
	"math"
	"sync"
	"testing"

	"tafpga/internal/activity"
	"tafpga/internal/arch"
	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/hotspot"
	"tafpga/internal/pack"
	"tafpga/internal/place"
	"tafpga/internal/power"
	"tafpga/internal/route"
	"tafpga/internal/sta"
	"tafpga/internal/techmodel"
)

type fixture struct {
	an *sta.Analyzer
	pm *power.Model
	th *hotspot.Model
}

var (
	once sync.Once
	fix  fixture
)

func setup(t *testing.T) fixture {
	t.Helper()
	once.Do(func() {
		params := coffe.DefaultParams()
		dev := coffe.MustSizeDevice(techmodel.Default22nm(), params, 25)
		prof, _ := bench.ByName("raygentop")
		nl, err := bench.Generate(prof.Scaled(1.0/32), bench.SeedFor("raygentop"))
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
		pl, err := place.Place(packed, grid, 4, 0.3)
		if err != nil {
			panic(err)
		}
		rt, err := route.Route(pl, route.BuildGraph(grid), route.DefaultOptions())
		if err != nil {
			panic(err)
		}
		an := sta.New(nl, dev, pl, rt)
		pm := power.New(dev, nl, pl, rt, act)
		th, err := hotspot.NewModel(grid.W, grid.H, pm.BasePowerUW(25))
		if err != nil {
			panic(err)
		}
		fix = fixture{an: an, pm: pm, th: th}
	})
	return fix
}

func TestAlgorithm1HeadlineBehavior(t *testing.T) {
	t.Parallel()
	f := setup(t)
	res25, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	res70, err := Run(f.an, f.pm, f.th, DefaultOptions(70))
	if err != nil {
		t.Fatal(err)
	}

	// The paper's central result: large gains at 25 °C ambient, smaller but
	// positive gains at 70 °C.
	if res25.GainPct < 20 || res25.GainPct > 60 {
		t.Errorf("gain at 25°C = %.1f%%, paper band is ~27..47%%", res25.GainPct)
	}
	if res70.GainPct < 5 || res70.GainPct > 30 {
		t.Errorf("gain at 70°C = %.1f%%, paper band is ~8..20%%", res70.GainPct)
	}
	if res70.GainPct >= res25.GainPct {
		t.Error("gain must shrink as ambient approaches the worst case")
	}
	if res25.FmaxMHz <= res25.BaselineMHz {
		t.Error("thermal-aware clock must beat the worst-case clock")
	}
}

func TestConvergesInFewIterations(t *testing.T) {
	t.Parallel()
	// The paper: "often takes a few (less than ten) iterations".
	f := setup(t)
	res, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 10 {
		t.Fatalf("converged in %d iterations, paper promises <10", res.Iterations)
	}
	if res.Iterations < 1 {
		t.Fatal("must iterate at least once")
	}
}

func TestTemperatureRiseIsModest(t *testing.T) {
	t.Parallel()
	// The paper: "due to relatively low switching rate, the temperature
	// converged after ~2 °C increase".
	f := setup(t)
	res, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if res.RiseC < 0.2 || res.RiseC > 8 {
		t.Fatalf("converged rise %.2f°C far from the paper's ~2°C", res.RiseC)
	}
	if res.SpreadC < 0 {
		t.Fatal("negative spread")
	}
}

func TestDeltaTMarginIsRealMargin(t *testing.T) {
	t.Parallel()
	f := setup(t)
	tight := DefaultOptions(25)
	tight.DeltaTC = 0.25
	loose := DefaultOptions(25)
	loose.DeltaTC = 8
	rt, err := Run(f.an, f.pm, f.th, tight)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(f.an, f.pm, f.th, loose)
	if err != nil {
		t.Fatal(err)
	}
	if rl.FmaxMHz >= rt.FmaxMHz {
		t.Fatalf("a larger δT margin must cost frequency: %g vs %g", rl.FmaxMHz, rt.FmaxMHz)
	}
}

func TestUniformTAblationIsPessimistic(t *testing.T) {
	t.Parallel()
	f := setup(t)
	perTile, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(25)
	opts.UniformT = true
	uniform, err := Run(f.an, f.pm, f.th, opts)
	if err != nil {
		t.Fatal(err)
	}
	if uniform.FmaxMHz > perTile.FmaxMHz+1e-6 {
		t.Fatalf("assuming the hottest tile everywhere cannot beat per-tile analysis: %g vs %g",
			uniform.FmaxMHz, perTile.FmaxMHz)
	}
}

func TestFrozenLeakageCoolsTheLoop(t *testing.T) {
	t.Parallel()
	f := setup(t)
	live, err := Run(f.an, f.pm, f.th, DefaultOptions(70))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(70)
	opts.FreezeLeakage = true
	frozen, err := Run(f.an, f.pm, f.th, opts)
	if err != nil {
		t.Fatal(err)
	}
	if frozen.RiseC > live.RiseC+1e-9 {
		t.Fatalf("disabling the leakage-temperature feedback cannot heat the die more: %g vs %g",
			frozen.RiseC, live.RiseC)
	}
}

func TestBreakdownPresent(t *testing.T) {
	t.Parallel()
	f := setup(t)
	res, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Breakdown) == 0 {
		t.Fatal("missing critical-path breakdown")
	}
	total := 0.0
	for _, v := range res.Breakdown {
		total += v
	}
	if total <= 0 {
		t.Fatal("empty breakdown")
	}
}

// TestConvergedFlag is the regression test for the silent MaxIters
// fall-through: an exhausted iteration budget must be reported as
// unconverged, while a normal run reports Converged.
func TestConvergedFlag(t *testing.T) {
	t.Parallel()
	f := setup(t)
	res, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("default run must converge (took %d iterations)", res.Iterations)
	}

	opts := DefaultOptions(25)
	opts.MaxIters = 1
	starved, err := Run(f.an, f.pm, f.th, opts)
	if err != nil {
		t.Fatal(err)
	}
	if starved.Converged {
		t.Fatal("MaxIters=1 cannot report convergence: the first thermal solve rises past δT")
	}
	if starved.Iterations != 1 {
		t.Fatalf("starved run took %d iterations, want 1", starved.Iterations)
	}
	if starved.FmaxMHz <= 0 || starved.BaselineMHz <= 0 {
		t.Fatal("unconverged runs must still report the last iterate")
	}
}

// TestThermalSeedInvariance: the deprecated ThermalSeed is ignored — seeding
// a run with another ambient's converged map must not change a single
// reported number.
func TestThermalSeedInvariance(t *testing.T) {
	t.Parallel()
	f := setup(t)
	warm25, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if len(warm25.SeedTemps) != f.an.PL.Grid.NumTiles() {
		t.Fatalf("SeedTemps has %d entries, want one per tile (%d)",
			len(warm25.SeedTemps), f.an.PL.Grid.NumTiles())
	}
	cold70, err := Run(f.an, f.pm, f.th, DefaultOptions(70))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(70)
	opts.ThermalSeed = warm25.SeedTemps
	seeded70, err := Run(f.an, f.pm, f.th, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seeded70.FmaxMHz != cold70.FmaxMHz ||
		seeded70.BaselineMHz != cold70.BaselineMHz ||
		seeded70.Iterations != cold70.Iterations ||
		seeded70.RiseC != cold70.RiseC ||
		seeded70.SpreadC != cold70.SpreadC ||
		seeded70.Converged != cold70.Converged {
		t.Fatalf("seeded run diverged: %+v vs %+v", seeded70, cold70)
	}
	for i := range cold70.Temps {
		if seeded70.Temps[i] != cold70.Temps[i] {
			t.Fatalf("seeded temperature map diverged at tile %d: %g vs %g",
				i, seeded70.Temps[i], cold70.Temps[i])
		}
	}
}

func TestDefaultOptionValues(t *testing.T) {
	t.Parallel()
	o := DefaultOptions(40)
	if o.AmbientC != 40 || o.WorstCaseC != 100 || o.DeltaTC != 0.5 {
		t.Fatalf("defaults drifted: %+v", o)
	}
}

// TestAmbientBounds: every entry point rejects a non-finite or out-of-range
// ambient with an error, never a panic, and accepts the bounds themselves.
func TestAmbientBounds(t *testing.T) {
	t.Parallel()
	f := setup(t)
	ef := energySetup(t)
	for _, c := range []struct {
		ambientC float64
		ok       bool
	}{
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
		{1e9, false}, {-1e9, false}, {-56, false}, {151, false},
		{MinAmbientC, true}, {MaxAmbientC, true},
	} {
		errs := map[string]error{"CheckAmbient": CheckAmbient(c.ambientC)}
		_, errs["Run"] = Run(f.an, f.pm, f.th, DefaultOptions(c.ambientC))
		_, errs["RunBatch"] = RunBatch(f.an, f.pm, f.th, []float64{25, c.ambientC}, DefaultOptions(25))
		_, errs["RunEnergy"] = RunEnergy(energyOptions(ef, c.ambientC))
		for name, err := range errs {
			if (err == nil) != c.ok {
				t.Errorf("%s at %g°C: err = %v, want accepted %v", name, c.ambientC, err, c.ok)
			}
		}
	}
}
