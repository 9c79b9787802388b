package guardband

import (
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

// energyFixture is one placed-and-routed design plus a per-rail model
// derivation — the in-package analogue of flow.VddLab (the flow package
// cannot be imported from here).
type energyFixture struct {
	nominalV float64

	mu     sync.Mutex
	byVdd  map[float64]EnergyModels
	derive func(vdd float64) (EnergyModels, error)
}

var (
	energyOnce sync.Once
	energyFix  *energyFixture
)

func energySetup(t *testing.T) *energyFixture {
	t.Helper()
	energyOnce.Do(func() {
		params := coffe.DefaultParams()
		dev := coffe.MustSizeDevice(techmodel.Default22nm(), params, 25)
		prof, _ := bench.ByName("sha")
		nl, err := bench.Generate(prof.Scaled(1.0/64), bench.SeedFor("sha"))
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
		f := &energyFixture{nominalV: dev.Kit.Buf.Vdd, byVdd: map[float64]EnergyModels{}}
		f.derive = func(vdd float64) (EnergyModels, error) {
			d := dev
			if vdd != f.nominalV {
				var err error
				d, err = dev.AtVdd(vdd)
				if err != nil {
					return EnergyModels{}, err
				}
			}
			an := sta.New(nl, d, pl, rt)
			pm := power.New(d, nl, pl, rt, act)
			th, err := hotspot.NewModel(grid.W, grid.H, pm.BasePowerUW(25))
			if err != nil {
				return EnergyModels{}, err
			}
			return EnergyModels{Timing: an, Power: pm, Thermal: th}, nil
		}
		energyFix = f
	})
	return energyFix
}

// modelsAt memoizes rail derivations across all energy tests; errors are not
// memoized (they fail before any table is built).
func (f *energyFixture) modelsAt(vdd float64) (EnergyModels, error) {
	f.mu.Lock()
	m, ok := f.byVdd[vdd]
	f.mu.Unlock()
	if ok {
		return m, nil
	}
	m, err := f.derive(vdd)
	if err != nil {
		return EnergyModels{}, err
	}
	f.mu.Lock()
	f.byVdd[vdd] = m
	f.mu.Unlock()
	return m, nil
}

func energyOptions(f *energyFixture, ambientC float64) EnergyOptions {
	o := DefaultEnergyOptions(ambientC)
	o.NominalVddV = f.nominalV
	o.ModelsAt = f.modelsAt
	return o
}

// TestRunEnergyHeadline: at a benign ambient the thermal margin converts to
// real voltage headroom — the minimum safe rail is strictly below nominal,
// power drops at iso-frequency, and the winning rail still clocks the target
// with the δT margin.
func TestRunEnergyHeadline(t *testing.T) {
	f := energySetup(t)
	var probes []EnergyProbe
	opts := energyOptions(f, 25)
	opts.OnProbe = func(p EnergyProbe) { probes = append(probes, p) }
	res, err := RunEnergy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("baseline target infeasible at the nominal rail")
	}
	if res.TargetMHz != res.BaselineMHz || res.BaselineMHz <= 0 {
		t.Fatalf("default target %.1f MHz must be the worst-case baseline %.1f MHz",
			res.TargetMHz, res.BaselineMHz)
	}
	if res.MinVddV >= res.NominalVddV-opts.VddTolV {
		t.Fatalf("min rail %.3f V is not below nominal %.3f V: no margin recovered",
			res.MinVddV, res.NominalVddV)
	}
	if res.FmaxMHz < res.TargetMHz {
		t.Fatalf("winning rail clocks %.1f MHz, below the %.1f MHz target",
			res.FmaxMHz, res.TargetMHz)
	}
	if res.SavingsPct <= 0 || res.PowerUW >= res.NominalPowerUW {
		t.Fatalf("no iso-frequency saving: %.1f µW at %.3f V vs %.1f µW nominal",
			res.PowerUW, res.MinVddV, res.NominalPowerUW)
	}
	if res.EnergyPJ >= res.NominalEnergyPJ || res.EnergyPJ <= 0 {
		t.Fatalf("energy/op did not drop: %.3f pJ vs %.3f pJ", res.EnergyPJ, res.NominalEnergyPJ)
	}
	if !res.Converged {
		t.Error("winning probe did not δT-converge")
	}
	if len(res.Temps) == 0 || res.RiseC <= 0 {
		t.Errorf("missing converged temperature map (rise %.2f °C)", res.RiseC)
	}

	// The probe stream must narrate the whole search: sequential numbering,
	// one probe at the nominal rail, count matching the result.
	if len(probes) != res.Probes || res.Probes < 2 {
		t.Fatalf("observed %d probes, result reports %d", len(probes), res.Probes)
	}
	for i, p := range probes {
		if p.Probe != i+1 {
			t.Fatalf("probe %d numbered %d", i, p.Probe)
		}
	}
	if probes[0].VddV != res.NominalVddV || !probes[0].Feasible {
		t.Fatal("first probe must be the feasible nominal rail")
	}
	if res.Stats.ThermalSolves == 0 || res.Stats.STAProbes == 0 {
		t.Fatal("kernel accounting missing from the energy search")
	}
}

// TestRunEnergyDeterministic: two identical searches report identical
// numbers — the bisection, seeding, and solver path are all deterministic.
func TestRunEnergyDeterministic(t *testing.T) {
	f := energySetup(t)
	a, err := RunEnergy(energyOptions(f, 25))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEnergy(energyOptions(f, 25))
	if err != nil {
		t.Fatal(err)
	}
	if a.MinVddV != b.MinVddV || a.PowerUW != b.PowerUW || a.FmaxMHz != b.FmaxMHz ||
		a.Probes != b.Probes || a.Iterations != b.Iterations || a.SavingsPct != b.SavingsPct {
		t.Fatalf("energy search not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	for i := range a.Temps {
		if a.Temps[i] != b.Temps[i] {
			t.Fatalf("temperature map diverged at tile %d", i)
		}
	}
}

// TestRunEnergyColdBound: at a cold ambient the Vth rise shrinks the
// conduction headroom, so the search floor is rejected by the device physics
// (classified, not a panic) and the minimum rail lands above the cold
// conduction threshold.
func TestRunEnergyColdBound(t *testing.T) {
	f := energySetup(t)
	opts := energyOptions(f, -40)
	nonConducting := 0
	opts.OnProbe = func(p EnergyProbe) {
		if p.NonConducting {
			nonConducting++
			if p.Feasible || p.FmaxMHz != 0 {
				t.Errorf("non-conducting probe at %.3f V reported results", p.VddV)
			}
		}
	}
	// Tighten the ModelsAt to the run's ambient, like flow.VddLab does: the
	// device tables only guarantee conduction down to their own low bound.
	inner := opts.ModelsAt
	opts.ModelsAt = func(vdd float64) (EnergyModels, error) {
		m, err := inner(vdd)
		if err != nil {
			return EnergyModels{}, err
		}
		if err := m.Power.Dev.Kit.OperableAt(-40); err != nil {
			return EnergyModels{}, err
		}
		return m, nil
	}
	res, err := RunEnergy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("cold-ambient search infeasible at nominal rail")
	}
	if nonConducting == 0 {
		t.Fatal("search floor 0.45 V conducted at -40 °C: cold bound never exercised")
	}
	// Pass-gate flavor at -40 °C: Vth = 0.42 + 0.0004·65 = 0.446 V, plus the
	// 0.05 V conduction margin — every rail at or below ~0.496 V is out.
	if res.MinVddV <= 0.496 {
		t.Fatalf("min rail %.3f V is below the cold conduction bound", res.MinVddV)
	}
}

// TestRunEnergyInfeasibleTarget: a target beyond the nominal rail's reach is
// reported (Feasible=false, nominal operating point echoed), not an error.
func TestRunEnergyInfeasibleTarget(t *testing.T) {
	f := energySetup(t)
	opts := energyOptions(f, 25)
	probe, err := RunEnergy(energyOptions(f, 25))
	if err != nil {
		t.Fatal(err)
	}
	opts.TargetMHz = 10 * probe.BaselineMHz
	res, err := RunEnergy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("10x baseline target reported feasible")
	}
	if res.MinVddV != res.NominalVddV || res.Probes != 1 {
		t.Fatalf("infeasible run must echo the nominal rail after one probe, got %.3f V after %d probes",
			res.MinVddV, res.Probes)
	}
	if res.SavingsPct != 0 {
		t.Fatalf("infeasible run reported %.1f%% savings", res.SavingsPct)
	}
}

// TestRunEnergyOnIteration: EnergyOptions embeds Options, whose OnIteration
// promises one Progress per convergence iteration — the min-energy search
// included. Every event narrates a probe that converged at its rail: the
// event count equals EnergyResult.Iterations, every VddV is a rail the
// search probed (and that conducted), each probe's events count its own
// iterations from 1, and the clock is the pinned target.
func TestRunEnergyOnIteration(t *testing.T) {
	f := energySetup(t)
	opts := energyOptions(f, 25)
	var events []Progress
	opts.OnIteration = func(p Progress) { events = append(events, p) }
	var probes []EnergyProbe
	opts.OnProbe = func(p EnergyProbe) { probes = append(probes, p) }
	res, err := RunEnergy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.Iterations || res.Iterations == 0 {
		t.Fatalf("%d iteration events, result reports %d iterations", len(events), res.Iterations)
	}
	next := 0
	for _, p := range probes {
		if p.NonConducting {
			continue
		}
		for it := 1; it <= p.Iterations; it++ {
			e := events[next]
			next++
			if e.VddV != p.VddV || e.VddV <= 0 {
				t.Fatalf("probe %d: event rail %.4f V, want the probed %.4f V", p.Probe, e.VddV, p.VddV)
			}
			if e.Iteration != it || e.AmbientC != opts.AmbientC || e.FmaxMHz != res.TargetMHz {
				t.Fatalf("probe %d: event %+v, want iteration %d at %g°C clocked at the %.3f MHz target",
					p.Probe, e, it, opts.AmbientC, res.TargetMHz)
			}
			if e.Converged != (it == p.Iterations && p.Converged) {
				t.Fatalf("probe %d iteration %d: Converged=%v", p.Probe, it, e.Converged)
			}
		}
	}
	if next != len(events) {
		t.Fatalf("%d events not attributable to a probe", len(events)-next)
	}
}
