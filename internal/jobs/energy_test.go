package jobs

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"tafpga/internal/experiments"
	"tafpga/internal/guardband"
	"tafpga/internal/obs"
)

func energySpec() Spec {
	return Spec{Kind: KindMinEnergy, Benchmark: "sha", Ambients: []float64{25, 70}}
}

// TestMinEnergySpecValidation pins the new kind's admission control.
func TestMinEnergySpecValidation(t *testing.T) {
	if err := energySpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	pinned := energySpec()
	pinned.TargetMHz = 250
	if err := pinned.Validate(); err != nil {
		t.Fatalf("pinned-target spec rejected: %v", err)
	}
	bad := []Spec{
		{Kind: KindMinEnergy, Benchmark: "nope", Ambients: []float64{25}},               // unknown benchmark
		{Kind: KindMinEnergy, Benchmark: "sha"},                                         // no ambients
		{Kind: KindMinEnergy, Benchmark: "sha", Ambients: []float64{400}},               // ambient out of range
		{Kind: KindMinEnergy, Benchmark: "sha", Ambients: make([]float64, 257)},         // axis too long
		{Kind: KindMinEnergy, Benchmark: "sha", Ambients: []float64{25}, TargetMHz: -1}, // negative target
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v must be rejected", s)
		}
	}
}

// TestMinEnergyKeying pins the dedup key: identical specs coalesce, every
// result-determining knob splits, stray fields of other kinds do not.
func TestMinEnergyKeying(t *testing.T) {
	base := energySpec()
	if base.Key() != energySpec().Key() {
		t.Fatal("identical specs produced different keys")
	}
	stray := energySpec()
	stray.Figure = "fig6"
	stray.ThermalWeight = 0.5
	stray.AmbientC = 25
	if stray.Key() != base.Key() {
		t.Fatal("stray fields of other kinds fragmented the dedup key")
	}
	for _, mutate := range []func(*Spec){
		func(s *Spec) { s.Benchmark = "mkPktMerge" },
		func(s *Spec) { s.Ambients = []float64{25} },
		func(s *Spec) { s.Ambients = []float64{70, 25} },
		func(s *Spec) { s.TargetMHz = 250 },
	} {
		s := energySpec()
		mutate(&s)
		if s.Key() == base.Key() {
			t.Errorf("mutation %+v did not change the key", s)
		}
	}
	// The sweep kind must not collide with the min-energy kind on the same
	// benchmark and ambient axis.
	sweep := Spec{Kind: KindSweep, Benchmark: "sha", Ambients: []float64{25, 70}}
	if sweep.Key() == base.Key() {
		t.Fatal("min-energy and sweep specs collided")
	}
}

// TestMinEnergyJobsTotal pins the labelled submission counter for the new
// kind.
func TestMinEnergyJobsTotal(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	reg := obs.NewRegistry()
	m := New(stubRun(&runs, release), Options{Workers: 1, Registry: reg})
	defer m.Close()
	defer close(release)

	if _, _, err := m.Submit(energySpec()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `tafpgad_jobs_total{kind="min-energy"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, b.String())
	}
}

// TestMinEnergyServedMatchesCLI is the serving contract for the new kind:
// the Runner's result is the same experiments rows the CLI prints, so the
// served JSON — physics fields, Stats (wall-clock) stripped — is
// byte-identical to the batch path.
func TestMinEnergyServedMatchesCLI(t *testing.T) {
	cfg := RunnerConfig{Scale: 1.0 / 64, ChannelTracks: 104, PlaceEffort: 0.3}
	r := NewRunner(cfg)
	spec := Spec{Kind: KindMinEnergy, Benchmark: "sha", Ambients: []float64{25}}
	var events []Event
	served, err := r.Run(context.Background(), spec, func(e Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := served.([]experiments.EnergyRow)
	if !ok || len(rows) != 1 {
		t.Fatalf("served result is %T (%v), want one EnergyRow", served, served)
	}

	c := experiments.NewContext(cfg.Scale)
	c.ChannelTracks = cfg.ChannelTracks
	c.PlaceEffort = cfg.PlaceEffort
	c.Benchmarks = []string{"sha"}
	cli, err := c.EnergySweep([]float64{25}, 0)
	if err != nil {
		t.Fatal(err)
	}

	physics := func(rs []experiments.EnergyRow) string {
		out := append([]experiments.EnergyRow(nil), rs...)
		for i := range out {
			out[i].Stats = guardband.Stats{}
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := physics(rows), physics(cli); a != b {
		t.Fatalf("served physics differ from the CLI path:\nserved: %s\ncli:    %s", a, b)
	}

	// The progress stream narrates the bisection: every event carries a
	// candidate rail, and more than one rail is probed.
	rails := map[float64]bool{}
	for _, e := range events {
		if e.VddV <= 0 {
			t.Fatalf("min-energy progress event without a rail: %+v", e)
		}
		rails[e.VddV] = true
	}
	if len(rails) < 2 {
		t.Fatalf("bisection narrated only %d distinct rails", len(rails))
	}
}

// TestMinEnergyProbeEvents pins the probe→event wiring: a min-energy probe
// surfaces as a progress event carrying the candidate rail, and fmax
// iterations keep a zero VddV so stream consumers can tell the objectives
// apart.
func TestMinEnergyProbeEvents(t *testing.T) {
	r := NewRunner(RunnerConfig{})
	var events []Event
	c := r.Context(context.Background(), func(e Event) { events = append(events, e) })

	c.OnProgress("sha", guardband.Progress{Iteration: 2, AmbientC: 25, FmaxMHz: 300, VddV: 0.625})
	c.OnProgress("sha", progressAt(3))

	if len(events) != 2 {
		t.Fatalf("want 2 events, got %d", len(events))
	}
	if events[0].VddV != 0.625 || events[0].Benchmark != "sha" || events[0].Iteration != 2 {
		t.Fatalf("probe event lost the rail: %+v", events[0])
	}
	if events[1].VddV != 0 {
		t.Fatalf("fmax iteration carries a rail: %+v", events[1])
	}
}
