package hotspot

import (
	"math"
	"testing"
	"testing/quick"
)

func model(t *testing.T, w, h int, baseUW float64) *Model {
	t.Helper()
	m, err := NewModel(w, h, baseUW)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUniformPowerGivesUniformRise(t *testing.T) {
	t.Parallel()
	m := model(t, 10, 10, 100000)
	p := make([]float64, 100)
	for i := range p {
		p[i] = 1000 // 1 mW per tile
	}
	temps, err := m.Solve(p, 25)
	if err != nil {
		t.Fatal(err)
	}
	if Spread(temps) > 0.01 {
		t.Fatalf("uniform power must give near-uniform temperature, spread %g", Spread(temps))
	}
	// All heat flows through the sink: mean rise = Rsink·P + Rvert·p_tile.
	wantMin := m.RSinkKPerW * 0.1 // 100 mW total
	if Mean(temps)-25 < wantMin {
		t.Fatalf("mean rise %g below sink-resistance floor %g", Mean(temps)-25, wantMin)
	}
}

func TestXPESensitivityCrossValidation(t *testing.T) {
	t.Parallel()
	// The paper validates its thermal setup against the Xilinx Power
	// Estimator: ΔT ≈ 0.7 · p_design / p_base. NewModel calibrates the sink
	// resistance from exactly that identity, so a design dissipating k×
	// the base power must heat the chip ≈ 0.7·k °C.
	const baseUW = 120000
	m := model(t, 30, 30, baseUW)
	for _, k := range []float64{1, 2, 5} {
		p := make([]float64, 900)
		for i := range p {
			p[i] = k * baseUW / 900
		}
		temps, err := m.Solve(p, 25)
		if err != nil {
			t.Fatal(err)
		}
		rise := Mean(temps) - 25
		want := XPESensitivity * k
		if math.Abs(rise-want)/want > 0.15 {
			t.Fatalf("k=%g: rise %g, XPE cross-validation wants ≈%g", k, rise, want)
		}
	}
}

func TestHotspotStandsOut(t *testing.T) {
	t.Parallel()
	m := model(t, 15, 15, 100000)
	p := make([]float64, 225)
	for i := range p {
		p[i] = 200
	}
	center := 7*15 + 7
	p[center] = 60000 // a 60 mW hotspot tile
	temps, err := m.Solve(p, 25)
	if err != nil {
		t.Fatal(err)
	}
	if temps[center] != Max(temps) {
		t.Fatal("hotspot tile must be the hottest")
	}
	if Spread(temps) < 5 {
		t.Fatalf("a concentrated source should create visible contrast, spread %g", Spread(temps))
	}
	// Lateral conduction: the neighbor must be warmer than the far corner.
	if temps[center+1] <= temps[0] {
		t.Fatal("heat must spread laterally")
	}
}

func TestOnChipVariationCanExceed20C(t *testing.T) {
	t.Parallel()
	// The paper cites >20 °C on-chip variation as attainable; an extreme
	// power map must be able to produce it.
	m := model(t, 20, 20, 150000)
	p := make([]float64, 400)
	for i := 0; i < 40; i++ {
		p[i] = 25000 // one fiercely active edge region
	}
	temps, err := m.Solve(p, 25)
	if err != nil {
		t.Fatal(err)
	}
	if Spread(temps) < 20 {
		t.Fatalf("extreme map only produced %.1f°C of variation", Spread(temps))
	}
}

func TestSuperposition(t *testing.T) {
	t.Parallel()
	// The network is linear: solving the sum of two power maps equals the
	// sum of the rises.
	m := model(t, 8, 8, 50000)
	pa := make([]float64, 64)
	pb := make([]float64, 64)
	pa[10] = 5000
	pb[50] = 8000
	sum := make([]float64, 64)
	for i := range sum {
		sum[i] = pa[i] + pb[i]
	}
	ta, _ := m.Solve(pa, 0)
	tb, _ := m.Solve(pb, 0)
	tsum, _ := m.Solve(sum, 0)
	for i := range tsum {
		if math.Abs(tsum[i]-(ta[i]+tb[i])) > 0.02 {
			t.Fatalf("superposition violated at tile %d: %g vs %g", i, tsum[i], ta[i]+tb[i])
		}
	}
}

func TestSolveValidation(t *testing.T) {
	t.Parallel()
	m := model(t, 4, 4, 1000)
	if _, err := m.Solve(make([]float64, 3), 25); err == nil {
		t.Fatal("expected length error")
	}
	bad := make([]float64, 16)
	bad[0] = -5
	if _, err := m.Solve(bad, 25); err == nil {
		t.Fatal("expected negative-power error")
	}
}

func TestNewModelValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewModel(0, 4, 1000); err == nil {
		t.Fatal("expected grid error")
	}
	if _, err := NewModel(4, 4, 0); err == nil {
		t.Fatal("expected base-power error")
	}
}

func TestStatsHelpers(t *testing.T) {
	t.Parallel()
	temps := []float64{10, 20, 15}
	if Spread(temps) != 10 || Mean(temps) != 15 || Max(temps) != 20 {
		t.Fatal("stats helpers broken")
	}
	if Spread(nil) != 0 || Mean(nil) != 0 {
		t.Fatal("empty-slice handling broken")
	}
}

// TestStatsHelpersEmptyConsistency: all three statistics agree on the empty
// map — in particular Max must return 0, not -Inf, so the UniformT ablation
// can never propagate -Inf temperatures.
func TestStatsHelpersEmptyConsistency(t *testing.T) {
	t.Parallel()
	for _, temps := range [][]float64{nil, {}} {
		if got := Max(temps); got != 0 {
			t.Fatalf("Max(%v) = %g, want 0", temps, got)
		}
		if got := Mean(temps); got != 0 {
			t.Fatalf("Mean(%v) = %g, want 0", temps, got)
		}
		if got := Spread(temps); got != 0 {
			t.Fatalf("Spread(%v) = %g, want 0", temps, got)
		}
	}
	if Max([]float64{-40}) != -40 {
		t.Fatal("Max must still report negative temperatures")
	}
}

// Property: ambient shifts are pure offsets (linearity in the boundary
// condition), and more total power never cools any tile.
func TestThermalProperties(t *testing.T) {
	t.Parallel()
	m := model(t, 6, 6, 20000)
	f := func(seed uint8, extra uint16) bool {
		p := make([]float64, 36)
		for i := range p {
			p[i] = float64((int(seed)+i*37)%500) * 10
		}
		t1, err := m.Solve(p, 25)
		if err != nil {
			return false
		}
		t2, err := m.Solve(p, 45)
		if err != nil {
			return false
		}
		for i := range t1 {
			if math.Abs((t2[i]-t1[i])-20) > 0.05 {
				return false
			}
		}
		// Add power somewhere: nothing cools.
		p[int(extra)%36] += 3000
		t3, err := m.Solve(p, 25)
		if err != nil {
			return false
		}
		for i := range t1 {
			if t3[i] < t1[i]-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
