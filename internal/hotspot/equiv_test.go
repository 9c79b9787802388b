package hotspot

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// equivGrids covers the degenerate and non-square shapes the solver must
// handle: 1×1, 1×N, N×1, squares, and wide/tall rectangles
// (wide grids exercise the transposed band ordering).
var equivGrids = [][2]int{
	{1, 1}, {1, 7}, {7, 1}, {2, 2}, {5, 5}, {3, 11}, {11, 3}, {16, 16}, {24, 6},
}

// randomPower builds a deterministic pseudo-random power vector with a mix
// of idle tiles and strong hotspots.
func randomPower(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		switch rng.Intn(4) {
		case 0:
			p[i] = 0
		case 1:
			p[i] = rng.Float64() * 500
		default:
			p[i] = rng.Float64() * 20000
		}
	}
	return p
}

// maxAbsDiff returns the infinity-norm distance of two maps.
func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestDirectSolvesTheNetworkExactly: the factorized path must satisfy the
// discrete heat-balance equations to machine precision — each tile's power
// plus the lateral and vertical flows must cancel within 1e-9 of the tile
// power scale.
func TestDirectSolvesTheNetworkExactly(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for _, g := range equivGrids {
		w, h := g[0], g[1]
		m := model(t, w, h, 40000)
		p := randomPower(rng, w*h)
		temps, err := m.Solve(p, 31)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		tSpread, err := m.validate(p, 31)
		if err != nil {
			t.Fatal(err)
		}
		gVert := 1 / m.RVertKPerW
		gLat := 1 / m.RLatKPerW
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				resid := p[i]*1e-6 + gVert*(tSpread-temps[i])
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || ny < 0 || nx >= w || ny >= h {
						continue
					}
					resid += gLat * (temps[ny*w+nx] - temps[i])
				}
				if math.Abs(resid) > 1e-9 {
					t.Fatalf("%dx%d: tile %d heat-balance residual %g", w, h, i, resid)
				}
			}
		}
	}
}

// TestDirectMatchesConvergedGaussSeidel: with the relaxation tolerance
// tightened far below its production setting, the seed iterative solution
// approaches the direct solution — the two paths solve the same network.
// At the production tolerance they agree to well inside the guardbanding
// loop's δT threshold.
func TestDirectMatchesConvergedGaussSeidel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	for _, g := range equivGrids {
		w, h := g[0], g[1]
		m := model(t, w, h, 25000)
		p := randomPower(rng, w*h)
		direct, err := m.Solve(p, 25)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}

		prod, err := m.SolveReference(p, 25, ReferenceTolerance, ReferenceMaxSweeps)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		if d := maxAbsDiff(direct, prod); d > 1e-3 {
			t.Fatalf("%dx%d: production-tolerance GS is %g °C from the direct solution", w, h, d)
		}

		ref, err := m.SolveReference(p, 25, 1e-12, 2000000)
		if err != nil {
			t.Fatalf("%dx%d tight: %v", w, h, err)
		}
		if d := maxAbsDiff(direct, ref); d > 1e-9 {
			t.Fatalf("%dx%d: tight GS is %g °C from the direct solution, want <= 1e-9", w, h, d)
		}
	}
}

// TestLiteralModelSolveErrors: a Model assembled by struct literal (no
// NewModel, so no factorization) has no solver to fall back on — Solve and
// Influence report an error instead of answering — while
// the seed relaxation, which needs no factorization, still solves it.
func TestLiteralModelSolveErrors(t *testing.T) {
	t.Parallel()
	m := &Model{W: 4, H: 3, RSinkKPerW: 2, RVertKPerW: 1800, RLatKPerW: 450}
	p := make([]float64, 12)
	p[5] = 4000
	if _, err := m.Solve(p, 25); err == nil || !strings.Contains(err.Error(), "no factorization") {
		t.Fatalf("Solve on a literal model: err=%v, want a missing-factorization error", err)
	}
	if err := m.Influence(0, make([]float64, 12)); err == nil {
		t.Fatal("Influence on a literal model must error")
	}
	if _, err := m.SolveReference(p, 25, 1e-6, 50000); err != nil {
		t.Fatalf("SolveReference needs no factorization: %v", err)
	}
}
