package jobs

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"tafpga/internal/guardband"
	"tafpga/internal/obs"
)

func progressAt(i int) guardband.Progress { return guardband.Progress{Iteration: i} }

func thermalSpec() Spec {
	return Spec{Kind: KindThermalPlaceCompare, AmbientC: 25, ThermalWeight: 0.5, ThermalRadius: 6}
}

// TestThermalCompareSpecValidation pins the new kind's admission control:
// the weight must be positive and bounded (a zero-weight compare is the
// baseline against itself), the radius and ambient bounded.
func TestThermalCompareSpecValidation(t *testing.T) {
	if err := thermalSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	min := Spec{Kind: KindThermalPlaceCompare, AmbientC: 25, ThermalWeight: 0.01}
	if err := min.Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	bad := []Spec{
		{Kind: KindThermalPlaceCompare, AmbientC: 25},                                          // weight unset
		{Kind: KindThermalPlaceCompare, AmbientC: 25, ThermalWeight: -1},                       // negative weight
		{Kind: KindThermalPlaceCompare, AmbientC: 25, ThermalWeight: 1e6},                      // absurd weight
		{Kind: KindThermalPlaceCompare, AmbientC: 25, ThermalWeight: 0.5, ThermalRadius: -1},   // negative radius
		{Kind: KindThermalPlaceCompare, AmbientC: 25, ThermalWeight: 0.5, ThermalRadius: 1000}, // absurd radius
		{Kind: KindThermalPlaceCompare, AmbientC: 400, ThermalWeight: 0.5},                     // ambient out of range
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v must be rejected", s)
		}
	}
}

// TestThermalCompareKeying pins the dedup key: identical specs coalesce,
// each result-determining knob splits, and stray fields of other kinds
// (a leftover benchmark, say) do not fragment the dedup.
func TestThermalCompareKeying(t *testing.T) {
	base := thermalSpec()
	if base.Key() != thermalSpec().Key() {
		t.Fatal("identical specs produced different keys")
	}
	stray := thermalSpec()
	stray.Benchmark = "sha"
	stray.Figure = "fig6"
	if stray.Key() != base.Key() {
		t.Fatal("stray benchmark/figure fields fragmented the dedup key")
	}
	for _, mutate := range []func(*Spec){
		func(s *Spec) { s.AmbientC = 70 },
		func(s *Spec) { s.ThermalWeight = 0.7 },
		func(s *Spec) { s.ThermalRadius = 8 },
	} {
		s := thermalSpec()
		mutate(&s)
		if s.Key() == base.Key() {
			t.Errorf("mutation %+v did not change the key", s)
		}
	}
}

// TestJobsTotalPerKind pins the per-kind submission counter: every accepted
// submission — deduped ones included — bumps its kind's labelled series.
func TestJobsTotalPerKind(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	reg := obs.NewRegistry()
	m := New(stubRun(&runs, release), Options{Workers: 1, Registry: reg})
	defer m.Close()
	defer close(release)

	if _, _, err := m.Submit(validSpec(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(validSpec(0)); err != nil { // dedup or queued twin: accepted either way
		t.Fatal(err)
	}
	if _, _, err := m.Submit(thermalSpec()); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`tafpgad_jobs_total{kind="guardband"} 2`,
		`tafpgad_jobs_total{kind="thermal-place-compare"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestProgressPhaseSplit pins the runner's bench-label convention: a
// compare-style progress label "<bench>/<phase>" arrives split into
// Event.Benchmark and Event.Phase, a plain label leaves Phase empty.
func TestProgressPhaseSplit(t *testing.T) {
	r := NewRunner(RunnerConfig{})
	var events []Event
	c := r.Context(context.Background(), func(e Event) { events = append(events, e) })

	c.OnProgress("sha/thermal", progressAt(3))
	c.OnProgress("sha", progressAt(4))

	if len(events) != 2 {
		t.Fatalf("want 2 events, got %d", len(events))
	}
	if events[0].Benchmark != "sha" || events[0].Phase != "thermal" || events[0].Iteration != 3 {
		t.Fatalf("labelled event split wrong: %+v", events[0])
	}
	if events[1].Benchmark != "sha" || events[1].Phase != "" || events[1].Iteration != 4 {
		t.Fatalf("plain event split wrong: %+v", events[1])
	}
}
