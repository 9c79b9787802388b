package hotspot

// batch.go solves one thermal network for many (power, ambient) lanes at
// once. The conductance matrix — and therefore its Cholesky factorization —
// is shared by every lane of an ambient sweep; only the right-hand sides
// differ. SolveBatch runs one multi-RHS forward/backward substitution over
// the interleaved lanes so the factor band is streamed through the cache
// once per batch instead of once per lane, while each lane's accumulation
// order is exactly solveInPlace's, keeping every lane bit-identical (==) to
// the serial Solve.

import "fmt"

// SolveBatch solves one lane per (powers[l], ambients[l]) pair. Lane l of
// the result is bit-identical to Solve(powers[l], ambients[l]). A one-lane
// batch takes Solve's serial substitution, which beats the interleaved form
// at that width, so callers never need a width-1 branch of their own. A
// zero-lane batch is a no-op returning (nil, nil); mismatched slice lengths
// — between powers and ambients, or a power lane of the wrong tile count —
// are errors.
func (m *Model) SolveBatch(powers [][]float64, ambients []float64) ([][]float64, error) {
	lanes := len(powers)
	if lanes != len(ambients) {
		return nil, fmt.Errorf("hotspot: %d power lanes vs %d ambients", lanes, len(ambients))
	}
	if lanes == 0 {
		return nil, nil
	}
	tSpread := make([]float64, lanes)
	for l := range powers {
		ts, err := m.validate(powers[l], ambients[l])
		if err != nil {
			return nil, fmt.Errorf("lane %d: %w", l, err)
		}
		tSpread[l] = ts
	}
	if err := m.factorized(); err != nil {
		return nil, err
	}
	if lanes == 1 {
		return [][]float64{m.solveDirect(powers[0], tSpread[0])}, nil
	}
	return m.solveDirectBatch(powers, tSpread), nil
}

// solveDirectBatch is the multi-RHS twin of solveDirect: the permuted
// right-hand sides are interleaved lane-minor (rhs[s*lanes+l]) and one
// banded substitution serves every lane.
func (m *Model) solveDirectBatch(powers [][]float64, tSpread []float64) [][]float64 {
	f := m.fact
	lanes := len(powers)
	gVert := 1 / m.RVertKPerW
	rhs := make([]float64, f.n*lanes)
	for s, g := range f.perm {
		base := s * lanes
		for l := 0; l < lanes; l++ {
			rhs[base+l] = powers[l][g]*1e-6 + gVert*tSpread[l]
		}
	}
	f.solveInPlaceBatch(rhs, lanes)
	out := make([][]float64, lanes)
	for l := range out {
		out[l] = make([]float64, f.n)
	}
	for s, g := range f.perm {
		base := s * lanes
		for l := 0; l < lanes; l++ {
			out[l][g] = rhs[base+l]
		}
	}
	return out
}

// solveInPlaceBatch solves L·Lᵀ·x = rhs for `lanes` interleaved right-hand
// sides. Each factor coefficient is loaded once per (row, column) and
// applied to every lane; per lane the subtraction order and the final
// division match solveInPlace exactly, so lane l's solution is bit-identical
// to a serial solve of that lane.
func (f *cholFactor) solveInPlaceBatch(rhs []float64, lanes int) {
	n, b := f.n, f.b
	bw := b + 1
	l := f.l
	acc := make([]float64, lanes)
	for i := 0; i < n; i++ {
		kmin := i - b
		if kmin < 0 {
			kmin = 0
		}
		copy(acc, rhs[i*lanes:(i+1)*lanes])
		for k := kmin; k < i; k++ {
			c := l[i*bw+k-i+b]
			row := rhs[k*lanes : (k+1)*lanes]
			for j := range acc {
				acc[j] -= c * row[j]
			}
		}
		d := l[i*bw+b]
		out := rhs[i*lanes : (i+1)*lanes]
		for j := range acc {
			out[j] = acc[j] / d
		}
	}
	for i := n - 1; i >= 0; i-- {
		kmax := i + b
		if kmax > n-1 {
			kmax = n - 1
		}
		copy(acc, rhs[i*lanes:(i+1)*lanes])
		for k := i + 1; k <= kmax; k++ {
			c := l[k*bw+i-k+b]
			row := rhs[k*lanes : (k+1)*lanes]
			for j := range acc {
				acc[j] -= c * row[j]
			}
		}
		d := l[i*bw+b]
		out := rhs[i*lanes : (i+1)*lanes]
		for j := range acc {
			out[j] = acc[j] / d
		}
	}
}
