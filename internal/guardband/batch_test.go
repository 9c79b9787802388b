package guardband

import (
	"context"
	"slices"
	"strings"
	"testing"
)

// physIdentical holds two Results to bit-identity on every physics field —
// the RunBatch contract. Stats is accounting (wall times, the shared
// baseline probe) and is checked separately where it matters.
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

// TestRunBatchProgressAttribution: RunBatch's OnIteration stream is the
// concatenation of the per-ambient Run streams, in ambient order.
func TestRunBatchProgressAttribution(t *testing.T) {
	f := setup(t)
	var want []Progress
	for _, amb := range batchAmbients {
		opts := DefaultOptions(amb)
		opts.OnIteration = func(p Progress) { want = append(want, p) }
		if _, err := Run(f.an, f.pm, f.th, opts); err != nil {
			t.Fatal(err)
		}
	}
	var got []Progress
	opts := DefaultOptions(0)
	opts.OnIteration = func(p Progress) { got = append(got, p) }
	if _, err := RunBatch(f.an, f.pm, f.th, batchAmbients, opts); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("RunBatch progress differs from the per-ambient Run streams:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunBatchEdges: empty batch is a no-op, and a cancelled context stops
// the loop.
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
