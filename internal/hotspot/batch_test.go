package hotspot

import (
	"math/rand"
	"strings"
	"testing"
)

// TestSolveBatchMatchesSolve: every lane, on every grid shape and at every
// width from the one-lane dispatch up, must be bit-identical (==) to the
// serial Solve at that lane's (power, ambient).
func TestSolveBatchMatchesSolve(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	for _, g := range equivGrids {
		m := model(t, g[0], g[1], 40000)
		for lanes := 1; lanes <= 5; lanes++ {
			powers := make([][]float64, lanes)
			ambients := make([]float64, lanes)
			for l := 0; l < lanes; l++ {
				powers[l] = randomPower(rng, g[0]*g[1])
				ambients[l] = 10 + float64(l)*20
			}
			batch, err := m.SolveBatch(powers, ambients)
			if err != nil {
				t.Fatalf("%dx%d lanes=%d: %v", g[0], g[1], lanes, err)
			}
			for l := 0; l < lanes; l++ {
				serial, err := m.Solve(powers[l], ambients[l])
				if err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(batch[l], serial); d != 0 {
					t.Fatalf("%dx%d lanes=%d lane %d: max diff %g, want bit-identical",
						g[0], g[1], lanes, l, d)
				}
			}
		}
	}
}

// TestSolveBatchEdgeCases: zero lanes is a no-op; ragged and mismatched
// inputs are errors, not panics or silent truncation.
func TestSolveBatchEdgeCases(t *testing.T) {
	t.Parallel()
	m := model(t, 4, 4, 40000)
	if out, err := m.SolveBatch(nil, nil); out != nil || err != nil {
		t.Fatalf("zero lanes: got (%v, %v) want (nil, nil)", out, err)
	}
	p := make([]float64, 16)
	check := func(name string, err error, frag string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Fatalf("%s: err=%v, want mention of %q", name, err, frag)
		}
	}
	_, err := m.SolveBatch([][]float64{p, p}, []float64{25})
	check("powers/ambients mismatch", err, "2 power lanes vs 1 ambients")
	_, err = m.SolveBatch([][]float64{p, make([]float64, 3)}, []float64{25, 25})
	check("ragged power lane", err, "lane 1")
	_, err = m.SolveBatch([][]float64{make([]float64, 3)}, []float64{25})
	check("ragged single lane", err, "lane 0")
}
