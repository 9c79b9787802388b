package techmodel

import "math"

// VthSigmaRef is the standard deviation of random threshold-voltage
// variation for an SRAM device of reference width VthSigmaRefWidth, in
// volts. Random dopant fluctuation at 22 nm puts σVth in the 30–50 mV range
// for near-minimum devices.
const VthSigmaRef = 0.100

// VthSigmaRefWidth is the device width in µm at which VthSigmaRef applies.
const VthSigmaRefWidth = 0.15

// VthSigmaFor returns the Pelgrom-scaled σVth for a device of the given
// width: σ ∝ 1/√(W·L). Upsizing a cell therefore reduces its variability —
// this is why sizing for a hot corner (where weak-cell leakage threatens the
// sense margin) buys margin with wider cells.
func VthSigmaFor(width float64) float64 {
	return VthSigmaRef * math.Sqrt(VthSigmaRefWidth/width)
}

// ExpectedWeakestLeak returns the analytic expectation of the leakage power
// in µW of the weakest (leakiest) SRAM cell among n cells at temperature
// tempC, following the methodology the paper cites ([29]: BRAM optimization
// needs the leakage current of the weakest SRAM cell at the target
// temperature). width is the cell pull-down width in µm. Per-cell leakage is
// lognormal in ΔVth with σ* = σVth/(SubSlope·vT), so
//
//	E[max leak] = leak₀ · ∫ e^(σ*·z) · n·φ(z)·Φ(z)^(n−1) dz
//
// which is evaluated by deterministic numeric quadrature (Gumbel
// asymptotics misbehave here: minimum-size SRAM cells have σ* comparable
// to the extreme-value location, the heavy-tail regime). The sizing engine
// uses this closed form so sizing stays deterministic; tests cross-check
// it against a Monte-Carlo over per-cell Vth variation.
func ExpectedWeakestLeak(f *Flavor, width, tempC float64, cells int) float64 {
	return f.Leak(width, tempC) * WeakestLeakFactor(f, width, cells)
}

// WeakestLeakFactor returns E[max leak]/leak₀, the temperature-independent
// factor by which ExpectedWeakestLeak scales the nominal cell leakage; it is
// 1 for cells ≤ 1. It depends only on the flavor's subthreshold slope, the
// cell width and the cell count, so callers that evaluate many temperatures
// at a fixed width compute it once.
func WeakestLeakFactor(f *Flavor, width float64, cells int) float64 {
	if cells <= 1 {
		return 1
	}
	// The ΔVth→leakage exponent uses the reference thermal voltage: KLeak
	// already carries the temperature behavior, so the weak cell is a
	// temperature-independent multiple of the nominal one (a first-order
	// match to measured weak-cell data).
	sigmaStar := VthSigmaFor(width) / (f.SubSlope * thermalVoltage(T0))
	return lognormalMaxMean(sigmaStar, cells)
}

// lognormalMaxMean computes E[e^(σ·max of n standard normals)] by Simpson
// quadrature of e^(σz)·n·φ(z)·Φ(z)^(n−1).
func lognormalMaxMean(sigma float64, n int) float64 {
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
	// Composite Simpson.
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
