package flow

import (
	"bytes"
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/guardband"
	"tafpga/internal/thermalest"
)

// TestCacheKeyThermalPlace pins the thermal knobs' cache-key rules: a
// disabled thermal term must not touch the key at all (existing on-disk
// entries stay warm), an enabled one must discriminate by weight, by
// *resolved* radius — radius 0 and the explicit default are one entry — by
// device corner and by PIDensity.
func TestCacheKeyThermalPlace(t *testing.T) {
	prof, err := bench.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(prof.Scaled(1.0/128), bench.SeedFor("sha"))
	if err != nil {
		t.Fatal(err)
	}
	params := coffe.DefaultParams()
	d25, d70 := devices(t)
	opts := testOptions("sha")
	base, err := cacheKey(nl, d25, params, opts)
	if err != nil {
		t.Fatal(err)
	}

	key := func(tp ThermalPlace) string {
		o := opts
		o.ThermalPlace = tp
		k, err := cacheKey(nl, d25, params, o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	// Disabled (weight <= 0): byte-identical to the legacy key, even with a
	// stray radius set.
	if key(ThermalPlace{}) != base {
		t.Fatal("zero-value ThermalPlace changed the cache key")
	}
	if key(ThermalPlace{Weight: 0, KernelRadius: 9}) != base {
		t.Fatal("disabled thermal term with a radius changed the cache key")
	}

	// Enabled: weight discriminates.
	on := key(ThermalPlace{Weight: 0.5})
	if on == base {
		t.Fatal("enabled thermal term did not change the cache key")
	}
	if key(ThermalPlace{Weight: 0.7}) == on {
		t.Fatal("weight change did not change the cache key")
	}

	// Radius is keyed at its resolved value: 0 and the explicit default
	// share an entry, a different radius splits off.
	if key(ThermalPlace{Weight: 0.5, KernelRadius: thermalest.DefaultRadius}) != on {
		t.Fatal("default radius keyed differently from radius 0")
	}
	if key(ThermalPlace{Weight: 0.5, KernelRadius: thermalest.DefaultRadius + 2}) == on {
		t.Fatal("radius change did not change the cache key")
	}

	// Device-corner rules. Disabled: the key must stay device-blind so every
	// legacy entry (which never hashed the device) stays warm.
	keyDev := func(d *coffe.Device, tp ThermalPlace) string {
		o := opts
		o.ThermalPlace = tp
		k, err := cacheKey(nl, d, params, o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if keyDev(d70, ThermalPlace{}) != base {
		t.Fatal("disabled thermal term keyed by device corner: legacy entries go cold")
	}
	// Enabled: the thermal cost reads the device's Vdd rails and CEff table,
	// so corners that change them must not share an entry. dev25 vs dev70
	// share an identical Arch (the sizing temperature is not a Params field)
	// — before the corner signature these collided.
	if keyDev(d70, ThermalPlace{Weight: 0.5}) == on {
		t.Fatal("sizing corner (25C vs 70C) did not change the thermal cache key")
	}
	// A re-characterized rail on the same silicon changes the kit Vdd only;
	// pass the *same* params so the discrimination is purely the corner
	// signature, not the hashed architecture.
	low, err := d25.AtVdd(0.72)
	if err != nil {
		t.Fatal(err)
	}
	if keyDev(low, ThermalPlace{Weight: 0.5}) == on {
		t.Fatal("core rail change did not change the thermal cache key")
	}

	// Thermal placement prices blocks by the activity PIDensity sets, so the
	// density splits an enabled key; disabled, it stays out of the key.
	keyPI := func(pi float64, tp ThermalPlace) string {
		o := opts
		o.PIDensity = pi
		o.ThermalPlace = tp
		k, err := cacheKey(nl, d25, params, o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if keyPI(0.15, ThermalPlace{}) != base {
		t.Fatal("PIDensity changed a thermally-oblivious cache key")
	}
	if keyPI(0.15, ThermalPlace{Weight: 0.5}) == on {
		t.Fatal("PIDensity 0.12 and 0.15 share a thermal-placement cache key")
	}
}

// thermalBuild runs the full cacheless flow front-end with the given
// thermal-placement options.
func thermalBuild(t *testing.T, name string, scale float64, seed int64, tp ThermalPlace) *Implementation {
	t.Helper()
	d, _ := devices(t)
	return thermalBuildOn(t, d, name, scale, seed, tp)
}

// thermalBuildOn is thermalBuild on an explicit device corner.
func thermalBuildOn(t *testing.T, d *coffe.Device, name string, scale float64, seed int64, tp ThermalPlace) *Implementation {
	t.Helper()
	prof, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(prof.Scaled(scale), bench.SeedFor(name))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(name)
	opts.Seed = seed
	opts.ThermalPlace = tp
	im, err := Implement(nl, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestThermalPlaceVddCornerPlacement proves the pre-fix cache collision was
// observable, not theoretical: with thermal placement enabled, two core-rail
// corners of the same silicon produce different placement bytes (the thermal
// cost reads the rails, and a BRAM-bearing design keeps its SRAM-rail tiles
// fixed while the logic tiles scale — the power *distribution* changes, not
// just its magnitude). A shared cache entry would have served one corner the
// other corner's placement. With the thermal term disabled the flow never
// reads the rail, so the corners stay byte-identical — which is exactly why
// legacy keys are allowed to stay device-blind.
func TestThermalPlaceVddCornerPlacement(t *testing.T) {
	d25, _ := devices(t)
	low, err := d25.AtVdd(0.7)
	if err != nil {
		t.Fatal(err)
	}
	tp := ThermalPlace{Weight: 1.0}
	nom := thermalBuildOn(t, d25, "mkPktMerge", 1.0/8, 1, tp)
	drop := thermalBuildOn(t, low, "mkPktMerge", 1.0/8, 1, tp)
	if bytes.Equal(flowFingerprint(t, nom), flowFingerprint(t, drop)) {
		t.Fatal("thermal placement ignored the core rail: two -vdd corners share placement bytes")
	}
	baseNom := thermalBuildOn(t, d25, "mkPktMerge", 1.0/8, 1, ThermalPlace{})
	baseDrop := thermalBuildOn(t, low, "mkPktMerge", 1.0/8, 1, ThermalPlace{})
	if !bytes.Equal(flowFingerprint(t, baseNom), flowFingerprint(t, baseDrop)) {
		t.Fatal("thermally-oblivious flow depends on the core rail: legacy keys cannot stay device-blind")
	}
}

// TestThermalZeroWeightFlowIdentity is the tentpole's safety contract:
// with the thermal weight at zero the whole flow — placement, routes, and
// the guardband report — must be byte-identical to today's flow, at every
// seed. Run under -race in CI alongside the determinism test.
func TestThermalZeroWeightFlowIdentity(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		base := thermalBuild(t, "sha", 1.0/64, seed, ThermalPlace{})
		zero := thermalBuild(t, "sha", 1.0/64, seed, ThermalPlace{Weight: 0, KernelRadius: 9})
		if !bytes.Equal(flowFingerprint(t, base), flowFingerprint(t, zero)) {
			t.Fatalf("seed %d: zero-weight thermal flow diverged from the baseline build", seed)
		}
		rb, err := base.Guardband(guardband.DefaultOptions(25))
		if err != nil {
			t.Fatal(err)
		}
		rz, err := zero.Guardband(guardband.DefaultOptions(25))
		if err != nil {
			t.Fatal(err)
		}
		if rb.FmaxMHz != rz.FmaxMHz || rb.BaselineMHz != rz.BaselineMHz || rb.Iterations != rz.Iterations {
			t.Fatalf("seed %d: guardband report diverged: %v/%v/%d vs %v/%v/%d",
				seed, rb.FmaxMHz, rb.BaselineMHz, rb.Iterations, rz.FmaxMHz, rz.BaselineMHz, rz.Iterations)
		}
		for i := range rb.Temps {
			if rb.Temps[i] != rz.Temps[i] {
				t.Fatalf("seed %d: converged temperature map diverged at tile %d", seed, i)
			}
		}
	}
}

// TestThermalWeightReachesPlacer checks the knob is actually wired: a
// positive weight must change the placement (and still produce a buildable,
// guardbandable implementation).
func TestThermalWeightReachesPlacer(t *testing.T) {
	base := thermalBuild(t, "sha", 1.0/64, 1, ThermalPlace{})
	therm := thermalBuild(t, "sha", 1.0/64, 1, ThermalPlace{Weight: 1.0})
	if bytes.Equal(flowFingerprint(t, base), flowFingerprint(t, therm)) {
		t.Fatal("weight 1.0 produced a byte-identical flow: the thermal term is not reaching the placer")
	}
	if _, err := therm.Guardband(guardband.DefaultOptions(25)); err != nil {
		t.Fatal(err)
	}
}
