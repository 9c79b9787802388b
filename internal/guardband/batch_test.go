package guardband

import (
	"context"
	"strings"
	"testing"
)

// physIdentical holds two Results to bit-identity on every physics field —
// the RunBatch contract. Stats is accounting (wall times, batch counters)
// and is checked separately where it matters.
func physIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.FmaxMHz != want.FmaxMHz || got.BaselineMHz != want.BaselineMHz ||
		got.GainPct != want.GainPct {
		t.Fatalf("%s: frequency drift: got (%v, %v, %v) want (%v, %v, %v)", label,
			got.FmaxMHz, got.BaselineMHz, got.GainPct,
			want.FmaxMHz, want.BaselineMHz, want.GainPct)
	}
	if got.Converged != want.Converged || got.Iterations != want.Iterations {
		t.Fatalf("%s: loop drift: got (%v, %d) want (%v, %d)", label,
			got.Converged, got.Iterations, want.Converged, want.Iterations)
	}
	if got.RiseC != want.RiseC || got.SpreadC != want.SpreadC {
		t.Fatalf("%s: map summary drift: got (%v, %v) want (%v, %v)", label,
			got.RiseC, got.SpreadC, want.RiseC, want.SpreadC)
	}
	for _, pair := range []struct {
		name string
		g, w []float64
	}{{"Temps", got.Temps, want.Temps}, {"SeedTemps", got.SeedTemps, want.SeedTemps}} {
		if len(pair.g) != len(pair.w) {
			t.Fatalf("%s: %s length drift: %d vs %d", label, pair.name, len(pair.g), len(pair.w))
		}
		for i := range pair.g {
			if pair.g[i] != pair.w[i] {
				t.Fatalf("%s: %s[%d] drift: %v vs %v", label, pair.name, i, pair.g[i], pair.w[i])
			}
		}
	}
	if len(got.Breakdown) != len(want.Breakdown) {
		t.Fatalf("%s: breakdown size drift: %d vs %d", label, len(got.Breakdown), len(want.Breakdown))
	}
	for k, v := range want.Breakdown {
		if got.Breakdown[k] != v {
			t.Fatalf("%s: breakdown[%v] drift: %v vs %v", label, k, got.Breakdown[k], v)
		}
	}
}

var batchAmbients = []float64{0, 25, 45, 70, 95}

// TestRunBatchMatchesRun: every lane at every batch size must be
// bit-identical to the serial Run at that lane's ambient, on every physics
// field — the whole-loop extension of the per-kernel equivalence tests.
func TestRunBatchMatchesRun(t *testing.T) {
	f := setup(t)
	serial := make([]*Result, len(batchAmbients))
	for i, amb := range batchAmbients {
		res, err := Run(f.an, f.pm, f.th, DefaultOptions(amb))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	for _, b := range []int{1, 2, 4, len(batchAmbients)} {
		for lo := 0; lo < len(batchAmbients); lo += b {
			hi := min(lo+b, len(batchAmbients))
			results, err := RunBatch(f.an, f.pm, f.th, batchAmbients[lo:hi], DefaultOptions(0))
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				label := "batch " + itoa(b) + " lane " + itoa(lo+i)
				physIdentical(t, label, res, serial[lo+i])
			}
		}
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}

// TestRunBatchLaneRetirement: lanes converging in different rounds must not
// perturb each other — the full batch equals the per-lane singleton batches,
// and RetiredEarly marks exactly the lanes that beat the slowest.
func TestRunBatchLaneRetirement(t *testing.T) {
	f := setup(t)
	full, err := RunBatch(f.an, f.pm, f.th, batchAmbients, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	maxIters := 0
	for _, res := range full {
		if res.Iterations > maxIters {
			maxIters = res.Iterations
		}
	}
	if full[0].Stats.LockstepIters != maxIters {
		t.Fatalf("lockstep rounds %d, want the slowest lane's %d iterations",
			full[0].Stats.LockstepIters, maxIters)
	}
	retired := 0
	for l, res := range full {
		single, err := RunBatch(f.an, f.pm, f.th, batchAmbients[l:l+1], DefaultOptions(0))
		if err != nil {
			t.Fatal(err)
		}
		physIdentical(t, "retirement lane "+itoa(l), res, single[0])
		if res.Stats.BatchLanes != 1 {
			t.Fatalf("lane %d: BatchLanes %d, want 1", l, res.Stats.BatchLanes)
		}
		early := res.Iterations < maxIters
		if got := res.Stats.RetiredEarly == 1; got != early {
			t.Fatalf("lane %d: RetiredEarly=%v but iterations %d of %d rounds",
				l, got, res.Iterations, maxIters)
		}
		if early {
			retired++
		}
	}
	var sum Stats
	for _, res := range full {
		sum.Add(res.Stats)
	}
	if sum.BatchLanes != len(batchAmbients) || sum.RetiredEarly != retired {
		t.Fatalf("summed counters %d lanes / %d retired, want %d / %d",
			sum.BatchLanes, sum.RetiredEarly, len(batchAmbients), retired)
	}
	if !strings.Contains(sum.String(), "lockstep rounds") {
		t.Fatalf("batch counters missing from Stats string: %q", sum.String())
	}
}

// TestRunBatchProgressAttribution: OnIteration events carry the lane's
// ambient, so an interleaved batched trace can be demultiplexed.
func TestRunBatchProgressAttribution(t *testing.T) {
	f := setup(t)
	seen := map[float64]int{}
	opts := DefaultOptions(0)
	opts.OnIteration = func(p Progress) {
		if p.Iteration < 1 || p.FmaxMHz <= 0 {
			t.Fatalf("malformed progress %+v", p)
		}
		seen[p.AmbientC]++
	}
	results, err := RunBatch(f.an, f.pm, f.th, batchAmbients, opts)
	if err != nil {
		t.Fatal(err)
	}
	for l, amb := range batchAmbients {
		if seen[amb] != results[l].Iterations {
			t.Fatalf("ambient %g: %d progress events, want %d iterations",
				amb, seen[amb], results[l].Iterations)
		}
	}
}

// TestRunBatchEdges: empty batch is a no-op, and a cancelled context stops
// the lockstep loop.
func TestRunBatchEdges(t *testing.T) {
	f := setup(t)
	if res, err := RunBatch(f.an, f.pm, f.th, nil, DefaultOptions(0)); res != nil || err != nil {
		t.Fatalf("empty batch: got (%v, %v) want (nil, nil)", res, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions(0)
	opts.Ctx = ctx
	if _, err := RunBatch(f.an, f.pm, f.th, []float64{25, 70}, opts); err == nil ||
		!strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled batch: err=%v, want context error", err)
	}
}

// TestRunBatchSeeded: the deprecated ThermalSeed is ignored — setting it
// changes no physics field of any lane.
func TestRunBatchSeeded(t *testing.T) {
	f := setup(t)
	warm, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunBatch(f.an, f.pm, f.th, []float64{45, 70}, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(0)
	opts.ThermalSeed = warm.SeedTemps
	seeded, err := RunBatch(f.an, f.pm, f.th, []float64{45, 70}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for l := range cold {
		physIdentical(t, "seeded lane "+itoa(l), seeded[l], cold[l])
	}
}
