package techmodel

import (
	"math"
	"sync"
)

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

// The Simpson grid of lognormalMaxMean: [quadZLo, quadZHi] in panels of
// about quadStep.
const (
	quadZLo  = -8.0
	quadZHi  = 16.0
	quadStep = 0.005
)

// quadNode is one Simpson node of lognormalMaxMean with its σ-independent
// terms ln Φ(z) and φ(z). skip marks a node where Φ(z) rounds to 0; its
// integrand is 0 for every σ and n.
type quadNode struct {
	z, lnCDF, pdf float64
	skip          bool
}

// quadGrid is the tabulated Simpson grid: panel width h and its nodes.
type quadGrid struct {
	h     float64
	nodes []quadNode
}

// quadTable builds the grid once per process. Each node term is the
// expression the direct quadrature evaluated inline, so lognormalMaxMean
// stays bit-identical to it.
var quadTable = sync.OnceValue(func() quadGrid {
	steps := int((quadZHi - quadZLo) / quadStep)
	if steps%2 == 1 {
		steps++
	}
	g := quadGrid{h: (quadZHi - quadZLo) / float64(steps), nodes: make([]quadNode, steps+1)}
	for i := range g.nodes {
		z := quadZLo + float64(i)*g.h
		if i == steps {
			z = quadZHi
		}
		c := 0.5 * (1 + math.Erf(z/math.Sqrt2))
		if c <= 0 {
			g.nodes[i] = quadNode{z: z, skip: true}
			continue
		}
		g.nodes[i] = quadNode{z: z, lnCDF: math.Log(c), pdf: math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)}
	}
	return g
})

// lognormalMaxMean computes E[e^(σ·max of n standard normals)] by Simpson
// quadrature of e^(σz)·n·φ(z)·Φ(z)^(n−1). The σ-independent node terms come
// from quadTable, so one call costs one Exp per node.
func lognormalMaxMean(sigma float64, n int) float64 {
	g := quadTable()
	fn := float64(n)
	integrand := func(q *quadNode) float64 {
		if q.skip {
			return 0
		}
		return math.Exp(sigma*q.z+(fn-1)*q.lnCDF) * fn * q.pdf
	}
	// Composite Simpson.
	last := len(g.nodes) - 1
	sum := integrand(&g.nodes[0]) + integrand(&g.nodes[last])
	for i := 1; i < last; i++ {
		if i%2 == 1 {
			sum += 4 * integrand(&g.nodes[i])
		} else {
			sum += 2 * integrand(&g.nodes[i])
		}
	}
	return sum * g.h / 3
}
