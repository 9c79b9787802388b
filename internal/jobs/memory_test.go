package jobs

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"tafpga/internal/experiments"
)

// guardbandLikeRun stands in for a served guardband job: the progress
// events of a two-iteration Algorithm-1 run and a BenchResult.
func guardbandLikeRun(_ context.Context, spec Spec, emit func(Event)) (any, error) {
	for it := 1; it <= 2; it++ {
		amb := spec.AmbientC
		emit(Event{
			Benchmark: spec.Benchmark, Iteration: it, AmbientC: &amb,
			FmaxMHz: 47.53082677988659 / float64(it), MaxDeltaC: 1.163734883924441 / float64(it),
			MaxC: 38.66373488392444 + float64(it), Converged: it == 2,
		})
	}
	return experiments.BenchResult{
		Name: spec.Benchmark, GainPct: 28.220767652170053, FmaxMHz: 47.1851225164611,
		BaselineMHz: 36.799906427375475, Iterations: 2, RiseC: 1.1164380378254677,
		SpreadC: 0.11694125319559845, Converged: true,
	}, nil
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle also frees what sync.Pools held
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedPerJob runs n guardband-like jobs to completion and returns the
// live heap they leave behind, per job, while the TTL keeps them.
func retainedPerJob(t *testing.T, o Options, n int) float64 {
	o.Workers, o.MaxQueue = 1, n
	m := New(guardbandLikeRun, o)
	defer m.Close()
	before := liveHeap()
	var last View
	for i := 0; i < n; i++ {
		v, _, err := m.Submit(Spec{Kind: KindGuardband, Benchmark: "sha", AmbientC: float64(i) / 8})
		if err != nil {
			t.Fatal(err)
		}
		last = v
	}
	waitState(t, m, last.ID, StateDone) // one FIFO worker: every job is done
	after := liveHeap()
	runtime.KeepAlive(m)
	return float64(int64(after)-int64(before)) / float64(n)
}

// A finished job keeps its view and nothing it ran with: its history is
// JSON in memory, or only in its finish file when there is a state dir. The
// daemon holds every finished job for the TTL, so its memory grows with
// throughput times this footprint.
func TestFinishedJobFootprint(t *testing.T) {
	for _, c := range []struct {
		name  string
		o     func() Options
		bound float64 // bytes per finished job
	}{
		{"memory", func() Options { return Options{} }, 1200},
		{"state dir", func() Options { return Options{Journal: newJournal(t, t.TempDir())} }, 800},
	} {
		per := retainedPerJob(t, c.o(), 400)
		t.Logf("%s: %.0f bytes retained per finished job", c.name, per)
		if per > c.bound {
			t.Errorf("%s: a finished job retains %.0f bytes, want at most %.0f", c.name, per, c.bound)
		}
	}
}

// The history a finished job serves, from memory or from its finish file,
// is the one its live subscribers saw.
func TestFinishedHistoryMatchesLive(t *testing.T) {
	for _, c := range []struct {
		name string
		o    func() Options
	}{
		{"memory", func() Options { return Options{} }},
		{"state dir", func() Options { return Options{Journal: newJournal(t, t.TempDir())} }},
	} {
		release := make(chan struct{})
		m := New(func(ctx context.Context, spec Spec, emit func(Event)) (any, error) {
			<-release
			return guardbandLikeRun(ctx, spec, emit)
		}, c.o())
		v, _, err := m.Submit(validSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		live, ch, stop, err := m.Subscribe(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		close(release)
		for e := range ch {
			live = append(live, e)
		}
		stop()
		finished, _, stop, err := m.Subscribe(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		stop()
		m.Close()
		if len(live) != 5 || !reflect.DeepEqual(finished, live) {
			t.Fatalf("%s: finished history %+v, live %+v", c.name, finished, live)
		}
	}
}
