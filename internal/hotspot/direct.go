package hotspot

// direct.go is the factorized solver behind Solve. The thermal network's
// conductance matrix depends only on the grid shape and the lateral/vertical
// resistances — never on the power vector or the ambient — so NewModel
// factors it once (banded Cholesky, the structure DiffChip-style repeated
// thermal solves exploit) and every Solve afterwards is one forward/backward
// substitution of O(n·bandwidth) work instead of up to MaxSweeps
// Gauss-Seidel sweeps over the die (SolveReference, the seed solver).

import (
	"math"
	"sync"
)

// cholFactor is the banded Cholesky factorization L·Lᵀ of the die-layer
// conductance matrix, in an ordering that runs along the shorter grid
// dimension so the band half-width is min(W, H).
type cholFactor struct {
	n int // nodes (W·H)
	b int // band half-width (min(W, H))
	// l stores the lower band of L row-major: l[i*(b+1)+(j-i+b)] = L[i][j]
	// for j in [i-b, i].
	l []float64
	// perm maps solver index → row-major grid index.
	perm []int32

	// rhsPool recycles the permuted right-hand-side scratch vector across
	// concurrent Solve calls.
	rhsPool sync.Pool
}

// factorize builds and factors the conductance matrix of a w×h die layer
// with vertical conductance gVert per tile and lateral conductance gLat per
// adjacent pair. It returns nil if the matrix is not positive definite
// (cannot happen for positive conductances; NewModel then reports an
// error).
func factorize(w, h int, gVert, gLat float64) *cholFactor {
	n := w * h
	b := w
	transposed := h < w
	if transposed {
		b = h
	}
	f := &cholFactor{n: n, b: b, perm: make([]int32, n)}
	for s := 0; s < n; s++ {
		if transposed {
			x, y := s/h, s%h
			f.perm[s] = int32(y*w + x)
		} else {
			f.perm[s] = int32(s)
		}
	}
	pos := make([]int32, n)
	for s, g := range f.perm {
		pos[g] = int32(s)
	}

	bw := b + 1
	f.l = make([]float64, n*bw)
	for s := 0; s < n; s++ {
		g := int(f.perm[s])
		x, y := g%w, g/w
		deg := 0
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || ny < 0 || nx >= w || ny >= h {
				continue
			}
			deg++
			if t := int(pos[ny*w+nx]); t < s {
				f.l[s*bw+t-s+b] = -gLat
			}
		}
		f.l[s*bw+b] = gVert + float64(deg)*gLat
	}

	// In-place banded Cholesky: O(n·b²) once per model.
	l := f.l
	for i := 0; i < n; i++ {
		jmin := i - b
		if jmin < 0 {
			jmin = 0
		}
		for j := jmin; j <= i; j++ {
			sum := l[i*bw+j-i+b]
			for k := jmin; k < j; k++ {
				sum -= l[i*bw+k-i+b] * l[j*bw+k-j+b]
			}
			if i == j {
				if sum <= 0 {
					return nil
				}
				l[i*bw+b] = math.Sqrt(sum)
			} else {
				l[i*bw+j-i+b] = sum / l[j*bw+b]
			}
		}
	}
	f.rhsPool.New = func() interface{} { return make([]float64, n) }
	return f
}

// solveInPlace solves L·Lᵀ·x = rhs, overwriting rhs with x.
func (f *cholFactor) solveInPlace(rhs []float64) {
	n, b := f.n, f.b
	bw := b + 1
	l := f.l
	for i := 0; i < n; i++ {
		kmin := i - b
		if kmin < 0 {
			kmin = 0
		}
		s := rhs[i]
		for k := kmin; k < i; k++ {
			s -= l[i*bw+k-i+b] * rhs[k]
		}
		rhs[i] = s / l[i*bw+b]
	}
	for i := n - 1; i >= 0; i-- {
		kmax := i + b
		if kmax > n-1 {
			kmax = n - 1
		}
		s := rhs[i]
		for k := i + 1; k <= kmax; k++ {
			s -= l[k*bw+i-k+b] * rhs[k]
		}
		rhs[i] = s / l[i*bw+b]
	}
}

// solveDirect computes the exact steady-state temperature map for the given
// power vector and spreader temperature via the precomputed factorization.
func (m *Model) solveDirect(powerUW []float64, tSpread float64) []float64 {
	f := m.fact
	gVert := 1 / m.RVertKPerW
	rhs := f.rhsPool.Get().([]float64)
	for s, g := range f.perm {
		rhs[s] = powerUW[g]*1e-6 + gVert*tSpread
	}
	f.solveInPlace(rhs)
	temps := make([]float64, f.n)
	for s, g := range f.perm {
		temps[g] = rhs[s]
	}
	f.rhsPool.Put(rhs) //nolint:staticcheck // slice header allocation is negligible
	return temps
}
