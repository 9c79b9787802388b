package techmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKelvin(t *testing.T) {
	if got := kelvin(0); math.Abs(got-273.15) > 1e-9 {
		t.Fatalf("kelvin(0) = %g", got)
	}
	if got := kelvin(100); math.Abs(got-373.15) > 1e-9 {
		t.Fatalf("kelvin(100) = %g", got)
	}
}

func TestVthLinearAndFalling(t *testing.T) {
	k := Default22nm()
	f := &k.Buf
	if f.Vth(T0) != f.Vth0 {
		t.Fatalf("Vth(T0) = %g, want %g", f.Vth(T0), f.Vth0)
	}
	if !(f.Vth(100) < f.Vth(25) && f.Vth(25) < f.Vth(0)) {
		t.Fatal("Vth must fall with temperature")
	}
	// Linearity: equal steps give equal drops.
	d1 := f.Vth(25) - f.Vth(50)
	d2 := f.Vth(50) - f.Vth(75)
	if math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("Vth not linear: %g vs %g", d1, d2)
	}
}

func TestRonFactorNormalization(t *testing.T) {
	k := Default22nm()
	for _, f := range []*Flavor{&k.Buf, &k.BufP, &k.Pass, &k.Cell, &k.CellP, &k.SRAM} {
		if got := f.RonFactor(T0); math.Abs(got-1) > 1e-12 {
			t.Fatalf("%s: RonFactor(T0) = %g, want 1", f.Name, got)
		}
	}
}

func TestRonIncreasesWithTemperature(t *testing.T) {
	k := Default22nm()
	for _, f := range []*Flavor{&k.Buf, &k.BufP, &k.Pass, &k.Cell, &k.CellP, &k.SRAM} {
		prev := f.Ron(1, 0)
		for temp := 10.0; temp <= 110; temp += 10 {
			cur := f.Ron(1, temp)
			if cur <= prev {
				t.Fatalf("%s: Ron not increasing at %g°C (%g <= %g)", f.Name, temp, cur, prev)
			}
			prev = cur
		}
	}
}

func TestRonScalesInverselyWithWidth(t *testing.T) {
	k := Default22nm()
	f := &k.Buf
	r1 := f.Ron(1, 25)
	r2 := f.Ron(2, 25)
	if math.Abs(r1/r2-2) > 1e-9 {
		t.Fatalf("Ron width scaling wrong: %g vs %g", r1, r2)
	}
}

func TestRonPanicsOnNonPositiveWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := Default22nm()
	k.Buf.Ron(0, 25)
}

func TestLeakageExponential(t *testing.T) {
	k := Default22nm()
	f := &k.Buf
	// P(T+Δ)/P(T) must be constant (pure exponential).
	r1 := f.Leak(1, 50) / f.Leak(1, 25)
	r2 := f.Leak(1, 75) / f.Leak(1, 50)
	if math.Abs(r1-r2) > 1e-9 {
		t.Fatalf("leakage not exponential: %g vs %g", r1, r2)
	}
	want := math.Exp(f.KLeak * 25)
	if math.Abs(r1-want) > 1e-9 {
		t.Fatalf("leakage growth %g, want %g", r1, want)
	}
}

func TestLeakWithDVth(t *testing.T) {
	k := Default22nm()
	f := &k.SRAM
	nom := f.Leak(0.15, 25)
	lo := leakWithDVth(f, 0.15, 25, +0.05) // higher Vth leaks less
	hi := leakWithDVth(f, 0.15, 25, -0.05)
	if !(lo < nom && nom < hi) {
		t.Fatalf("ΔVth ordering violated: %g, %g, %g", lo, nom, hi)
	}
	if leakWithDVth(f, 0.15, 25, 0) != nom {
		t.Fatal("zero ΔVth must be nominal")
	}
}

func TestWorstEdgeRonMinimizedNearNominalSplit(t *testing.T) {
	k := Default22nm()
	at := func(pn float64) float64 { return k.WorstEdgeRon(1, pn, T0) }
	best := k.NominalSplit()
	if at(best) > at(best+0.05)+1e-9 || at(best) > at(best-0.05)+1e-9 {
		t.Fatalf("nominal split %g is not a local optimum at T0: %g vs %g / %g",
			best, at(best), at(best-0.05), at(best+0.05))
	}
}

func TestOptimalSplitShiftsWithTemperature(t *testing.T) {
	k := Default22nm()
	argmin := func(temp float64) float64 {
		best, bestV := 0.0, math.Inf(1)
		for pn := 0.40; pn <= 0.90; pn += 0.0005 {
			if v := k.WorstEdgeRon(1, pn, temp); v < bestV {
				best, bestV = pn, v
			}
		}
		return best
	}
	cold, hot := argmin(0), argmin(100)
	if cold == hot {
		t.Fatalf("optimal P:N split does not move with temperature (%g)", cold)
	}
	// The NMOS flavor is the more temperature-sensitive one, so hot designs
	// must give the N side more width: smaller P fraction when hot.
	if hot >= cold {
		t.Fatalf("expected hot split < cold split, got %g vs %g", hot, cold)
	}
}

func TestWorstEdgeRonPanicsOnBadSplit(t *testing.T) {
	k := Default22nm()
	for _, pn := range []float64{0, 1, -0.3, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for pn=%g", pn)
				}
			}()
			k.WorstEdgeRon(1, pn, 25)
		}()
	}
}

func TestPelgromScaling(t *testing.T) {
	if VthSigmaFor(VthSigmaRefWidth) != VthSigmaRef {
		t.Fatal("sigma at reference width must be the reference sigma")
	}
	if VthSigmaFor(4*VthSigmaRefWidth) != VthSigmaRef/2 {
		t.Fatal("4× width must halve sigma")
	}
	if !(VthSigmaFor(0.08) > VthSigmaRef) {
		t.Fatal("narrower devices must vary more")
	}
}

// leakWithDVth is Leak for a device whose threshold deviates from nominal by
// dVth volts (negative dVth leaks more), using the same reference thermal
// voltage as WeakestLeakFactor: the sampled counterpart of that closed form.
func leakWithDVth(f *Flavor, width, tempC, dVth float64) float64 {
	return f.Leak(width, tempC) * math.Exp(-dVth/(f.SubSlope*thermalVoltage(T0)))
}

// weakestCellLeak runs a Monte-Carlo over per-cell Vth variation and returns
// the leakage power in µW of the weakest (leakiest) SRAM cell among `cells`
// samples at temperature tempC. It is the sampled counterpart of the closed
// form ExpectedWeakestLeak and exists only to cross-check it.
func weakestCellLeak(f *Flavor, width, tempC float64, cells int, rng *rand.Rand) float64 {
	if cells <= 0 {
		return f.Leak(width, tempC)
	}
	sigma := VthSigmaFor(width)
	worst := 0.0
	for i := 0; i < cells; i++ {
		dv := rng.NormFloat64() * sigma
		if l := leakWithDVth(f, width, tempC, dv); l > worst {
			worst = l
		}
	}
	return worst
}

func TestWeakestCellLeakExceedsNominal(t *testing.T) {
	k := Default22nm()
	rng := rand.New(rand.NewSource(7))
	nom := k.SRAM.Leak(0.15, 25)
	worst := weakestCellLeak(&k.SRAM, 0.15, 25, 256, rng)
	if worst <= nom {
		t.Fatalf("weakest cell (%g) must leak more than nominal (%g)", worst, nom)
	}
}

func TestExpectedWeakestLeakMatchesMonteCarlo(t *testing.T) {
	k := Default22nm()
	analytic := ExpectedWeakestLeak(&k.SRAM, 0.15, 25, 256)
	// Average many Monte-Carlo draws of the 256-cell maximum.
	rng := rand.New(rand.NewSource(42))
	const trials = 400
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += weakestCellLeak(&k.SRAM, 0.15, 25, 256, rng)
	}
	mc := sum / trials
	if ratio := analytic / mc; ratio < 0.55 || ratio > 1.8 {
		t.Fatalf("closed form %g too far from Monte-Carlo %g (ratio %g)", analytic, mc, ratio)
	}
}

func TestExpectedWeakestLeakMonotoneInCells(t *testing.T) {
	k := Default22nm()
	prev := 0.0
	for _, n := range []int{2, 8, 64, 512, 4096} {
		cur := ExpectedWeakestLeak(&k.SRAM, 0.15, 25, n)
		if cur <= prev {
			t.Fatalf("weakest leak must grow with population: %d cells → %g", n, cur)
		}
		prev = cur
	}
}

func TestWirePhysics(t *testing.T) {
	k := Default22nm()
	w := k.Wire
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.R(100, 100) <= w.R(100, 0) {
		t.Fatal("wire resistance must rise with temperature")
	}
	if math.Abs(w.C(100)-100*w.CPerUm) > 1e-12 {
		t.Fatal("wire capacitance must be linear in length")
	}
	if w.ElmoreWire(100, 25, 10) <= 0 {
		t.Fatal("Elmore delay must be positive")
	}
}

func TestWireValidateRejectsBadModels(t *testing.T) {
	bad := []Wire{
		{RPerUm0: 0, CPerUm: 0.2, TCR: 0.004},
		{RPerUm0: 0.001, CPerUm: -1, TCR: 0.004},
		{RPerUm0: 0.001, CPerUm: 0.2, TCR: -0.1},
		{RPerUm0: 0.001, CPerUm: 0.2, TCR: 0.5},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

// Property: Ron is positive and finite for any plausible width and
// temperature, and leakage never decreases with temperature.
func TestRonAndLeakProperties(t *testing.T) {
	k := Default22nm()
	f := func(wSeed, tSeed uint16) bool {
		w := 0.05 + float64(wSeed%1000)/100 // 0.05..10.05 µm
		temp := float64(tSeed % 121)        // 0..120 °C
		for _, fl := range []*Flavor{&k.Buf, &k.Pass, &k.SRAM} {
			r := fl.Ron(w, temp)
			if !(r > 0) || math.IsInf(r, 0) || math.IsNaN(r) {
				return false
			}
			if fl.Leak(w, temp+1) < fl.Leak(w, temp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOverdrivePanicsWhenNonConducting(t *testing.T) {
	f := Flavor{Name: "broken", Vdd: 0.3, Vth0: 0.5, KVth: 0, Alpha: 1.3, TempExp: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive overdrive")
		}
	}()
	f.Overdrive(25)
}
