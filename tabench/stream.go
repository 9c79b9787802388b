package main

import (
	"hash/fnv"
	"math/rand"
)

// stream yields an endless seeded op sequence, one deck at a time. Every
// deck holds the same multiset of op templates; the seed picks their order
// and their free parameters. A run therefore does the same mix of work
// whatever its seed, and the same seed always gives the same ops.
type stream[T any] struct {
	rng  *rand.Rand
	deck func(*rand.Rand) []T
	buf  []T
}

// newStream seeds a stream from the workload seed and the workload name,
// so workloads sharing a seed still draw independent streams.
func newStream[T any](seed int64, workload string, deck func(*rand.Rand) []T) *stream[T] {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &stream[T]{rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64()))), deck: deck}
}

func (s *stream[T]) next() T {
	if len(s.buf) == 0 {
		s.buf = s.deck(s.rng)
	}
	op := s.buf[0]
	s.buf = s.buf[1:]
	return op
}

// take returns the next n ops.
func (s *stream[T]) take(n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](r *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
