package hotspot

// reference_test.go keeps the seed thermal solver verbatim: the
// Gauss-Seidel relaxation the factorized Solve replaced. The equivalence
// tests hold Solve to it, and the whole-run oracle of oracle_test.go runs
// Algorithm 1 over it. It is test code only.

import (
	"fmt"
	"math"
)

// The seed model's relaxation settings: the tolerance and sweep cap every
// Model carried before the factorized solve replaced the relaxation.
const (
	ReferenceTolerance = 1e-5
	ReferenceMaxSweeps = 20000
)

// SolveReference is the seed Gauss-Seidel implementation, kept verbatim as
// the golden reference for the direct solve, relaxing until no node moves
// by tol °C or maxSweeps sweeps have run. It needs no factorization, so it
// also solves struct-literal models.
func (m *Model) SolveReference(powerUW []float64, ambientC, tol float64, maxSweeps int) ([]float64, error) {
	tSpread, err := m.validate(powerUW, ambientC)
	if err != nil {
		return nil, err
	}
	return m.referenceSweeps(powerUW, tSpread, tol, maxSweeps)
}

// referenceSweeps is the original relaxation inner loop: neighbor offsets
// and denominators rebuilt at every node visit, cold start from the
// spreader temperature.
func (m *Model) referenceSweeps(powerUW []float64, tSpread, tol float64, maxSweeps int) ([]float64, error) {
	n := m.W * m.H
	// Gauss-Seidel with successive over-relaxation on the die layer.
	temps := make([]float64, n)
	for i := range temps {
		temps[i] = tSpread
	}
	gVert := 1 / m.RVertKPerW
	gLat := 1 / m.RLatKPerW
	const omega = 1.6
	for sweep := 0; sweep < maxSweeps; sweep++ {
		maxDelta := 0.0
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				i := y*m.W + x
				num := powerUW[i]*1e-6 + gVert*tSpread
				den := gVert
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || ny < 0 || nx >= m.W || ny >= m.H {
						continue
					}
					num += gLat * temps[ny*m.W+nx]
					den += gLat
				}
				next := num / den
				next = temps[i] + omega*(next-temps[i])
				if d := math.Abs(next - temps[i]); d > maxDelta {
					maxDelta = d
				}
				temps[i] = next
			}
		}
		if maxDelta < tol {
			return temps, nil
		}
	}
	return nil, fmt.Errorf("hotspot: Gauss-Seidel did not converge in %d sweeps", maxSweeps)
}
