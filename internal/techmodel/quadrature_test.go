package techmodel

import (
	"math"
	"testing"
)

// lognormalMaxMeanDirect is the Simpson quadrature of lognormalMaxMean with
// every node term evaluated inline: Erf, Log and two Exps per node. It is
// the specification the tabulated kernel must reproduce bit for bit.
func lognormalMaxMeanDirect(sigma float64, n int) float64 {
	const (
		zLo  = -8.0
		zHi  = 16.0
		step = 0.005
	)
	phi := func(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
	cdf := func(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }
	fn := float64(n)
	integrand := func(z float64) float64 {
		c := cdf(z)
		if c <= 0 {
			return 0
		}
		return math.Exp(sigma*z+(fn-1)*math.Log(c)) * fn * phi(z)
	}
	steps := int((zHi - zLo) / step)
	if steps%2 == 1 {
		steps++
	}
	h := (zHi - zLo) / float64(steps)
	sum := integrand(zLo) + integrand(zHi)
	for i := 1; i < steps; i++ {
		z := zLo + float64(i)*h
		if i%2 == 1 {
			sum += 4 * integrand(z)
		} else {
			sum += 2 * integrand(z)
		}
	}
	return sum * h / 3
}

// TestLognormalMaxMeanMatchesDirect pins the tabulated quadrature to the
// direct one bit for bit over a σ×n grid. Device sizing visits σ* between
// about 1.03 (wide cells) and 1.86 (minimum cells) at 256 rows; the grid
// spans 0.05–3.0 so a widened sizing range stays covered, and n runs from
// the single-cell edge (no Φ power) to 4096 rows.
func TestLognormalMaxMeanMatchesDirect(t *testing.T) {
	k := Default22nm()
	sigmas := []float64{
		// σ* of the default BRAM cell width and of the reference width.
		VthSigmaFor(0.45) / (k.SRAM.SubSlope * thermalVoltage(T0)),
		VthSigmaFor(0.15) / (k.SRAM.SubSlope * thermalVoltage(T0)),
	}
	for s := 0.05; s <= 3.0; s += 0.0173 {
		sigmas = append(sigmas, s)
	}
	for _, n := range []int{1, 2, 3, 16, 64, 255, 256, 512, 4096} {
		for _, s := range sigmas {
			got, want := lognormalMaxMean(s, n), lognormalMaxMeanDirect(s, n)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("σ=%v n=%d: tabulated %v (%#x), direct %v (%#x)",
					s, n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
