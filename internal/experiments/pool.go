package experiments

import (
	"runtime"
	"sync"
	"time"
)

// workers resolves the context's pool width.
func (c *Context) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut is the one fan-out of every driver: it runs cell(i) for the
// len(labels) cells of an axis — the benchmarks of a suite or the ambients
// of a sweep — on at most Workers goroutines and returns the results in
// axis order. Every cell carries its own seed, so the worker count never
// changes a result. Cells are claimed in order; after a failure, or once
// Ctx is cancelled, no new cell starts and the running ones finish. The
// error is then the earliest-indexed failure, or the context error, and
// the results are the finished cells up to the first unfinished one:
// exactly what a serial loop (Workers 1) returns. OnBenchDone receives
// each finished cell's label and wall time.
func fanOut[T any](c *Context, labels []string, cell func(i int) (T, error)) ([]T, error) {
	n := len(labels)
	out := make([]T, n)
	errs := make([]error, n)
	var (
		mu     sync.Mutex
		next   int
		failed bool
		wg     sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if failed || next >= n || c.ctx().Err() != nil {
			return -1
		}
		next++
		return next - 1
	}
	for range min(c.workers(), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				start := time.Now()
				res, err := cell(i)
				mu.Lock()
				if err != nil {
					errs[i], failed = err, true
				} else {
					out[i] = res
					if c.OnBenchDone != nil {
						c.OnBenchDone(labels[i], time.Since(start))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Cells [0, next) ran; [next, n) never started, which only a failure
	// among the ones that ran or a cancellation can cause.
	for i, err := range errs[:next] {
		if err != nil {
			return out[:i], err
		}
	}
	if next < n {
		return out[:next], c.ctx().Err()
	}
	return out, nil
}
