package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the set of percentiles a tail latency may be reported at.
// A fixed ladder keeps the reported percentile identical across runs whose
// sample counts differ a little, so run medians compare like with like.
var tailLadder = []float64{50, 75, 90, 95, 99}

// tail is a tail-latency figure: the value at Pct and how many samples lie
// beyond it.
type tail struct {
	Pct    float64
	Beyond int
	Value  float64
}

// tailLatency returns the highest ladder percentile, no higher than maxPct,
// that has at least minBeyond samples strictly beyond its nearest-rank
// position. ok is false when even the lowest rung lacks minBeyond samples.
func tailLatency(xs []float64, minBeyond int, maxPct float64) (t tail, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		if p > maxPct {
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if rank < 1 || n-rank < minBeyond {
			continue
		}
		return tail{Pct: p, Beyond: n - rank, Value: s[rank-1]}, true
	}
	return tail{}, false
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
