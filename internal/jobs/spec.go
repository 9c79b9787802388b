// Package jobs is the serving layer's job queue: guardband and experiment
// runs become schedulable tasks with admission control instead of ad-hoc
// processes. A Manager owns a FIFO queue drained by a bounded worker pool
// (the same claim-in-order semantics as experiments' benchmark pool), an
// in-memory store with TTL eviction of finished jobs, and singleflight
// deduplication of identical specs: two concurrent submissions of the same
// canonical spec share one underlying computation. The dedup layers on
// flow.Cache — the singleflight collapses identical *concurrent* requests,
// while the content-keyed flow cache makes *repeated* requests skip the
// implementation front-end.
package jobs

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"tafpga/internal/bench"
	"tafpga/internal/guardband"
)

// Kind selects what a job computes.
type Kind string

const (
	// KindGuardband runs Algorithm 1 on one benchmark at one ambient.
	KindGuardband Kind = "guardband"
	// KindSweep runs Algorithm 1 on one benchmark across an ambient list,
	// one independent run per ambient.
	KindSweep Kind = "sweep"
	// KindFigure reproduces one of the paper's benchmark-suite figures
	// (fig6, fig7, fig8).
	KindFigure Kind = "figure"
	// KindThermalPlaceCompare runs every suite benchmark through the full
	// Algorithm-1 guardband twice — thermally-oblivious vs thermal-aware
	// placement — and reports the peak-temperature and fmax deltas.
	KindThermalPlaceCompare Kind = "thermal-place-compare"
	// KindMinEnergy runs the min-energy guardband objective on one
	// benchmark across an ambient list: per ambient, bisect the minimum
	// safe core rail that still meets the target frequency (0 = the
	// benchmark's own conventional worst-case clock).
	KindMinEnergy Kind = "min-energy"
)

// Figures are the suite experiments a KindFigure job may request.
var Figures = []string{"fig6", "fig7", "fig8"}

// Spec describes one job. Daemon-wide settings (benchmark scale, channel
// width, placement effort) deliberately live on the Runner, not the Spec:
// every spec field participates in the canonical dedup key, and server-side
// configuration must not fragment it.
type Spec struct {
	Kind Kind `json:"kind"`
	// Benchmark names the workload (guardband and sweep kinds).
	Benchmark string `json:"benchmark,omitempty"`
	// AmbientC is the guardbanding ambient (guardband kind).
	AmbientC float64 `json:"ambient_c,omitempty"`
	// Ambients is the sweep axis in run order (sweep kind).
	Ambients []float64 `json:"ambients,omitempty"`
	// Figure is fig6, fig7, or fig8 (figure kind).
	Figure string `json:"figure,omitempty"`
	// ThermalWeight and ThermalRadius configure the thermal-aware phase of
	// the thermal-place-compare kind (flow.ThermalPlace). Unlike the
	// daemon's wall-clock knobs these change the produced results, so they
	// are Spec fields and participate in the dedup key.
	ThermalWeight float64 `json:"thermal_weight,omitempty"`
	ThermalRadius int     `json:"thermal_radius,omitempty"`
	// TargetMHz is the min-energy kind's iso-frequency constraint; 0 holds
	// each run at the benchmark's own conventional worst-case clock.
	TargetMHz float64 `json:"target_mhz,omitempty"`
}

// Validate checks the spec and is the service's admission control: unknown
// kinds, unknown benchmarks or figures, empty or out-of-range ambient axes
// are all rejected before anything is queued. Ambients are bounded by
// guardband.CheckAmbient, the same check every guardband entry point runs.
func (s Spec) Validate() error {
	checkAmbient := func(as ...float64) error {
		if err := guardband.CheckAmbient(as...); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		return nil
	}
	switch s.Kind {
	case KindGuardband:
		if _, err := bench.ByName(s.Benchmark); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		return checkAmbient(s.AmbientC)
	case KindSweep, KindMinEnergy:
		if _, err := bench.ByName(s.Benchmark); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		if len(s.Ambients) == 0 || len(s.Ambients) > guardband.MaxAmbients {
			return fmt.Errorf("jobs: %s of %d ambients: want 1 to %d", s.Kind, len(s.Ambients), guardband.MaxAmbients)
		}
		if err := checkAmbient(s.Ambients...); err != nil {
			return err
		}
		if s.Kind == KindMinEnergy && (s.TargetMHz < 0 || s.TargetMHz > 1e5) {
			return fmt.Errorf("jobs: target %g MHz outside [0, 1e5]", s.TargetMHz)
		}
		return nil
	case KindFigure:
		for _, f := range Figures {
			if s.Figure == f {
				return nil
			}
		}
		return fmt.Errorf("jobs: unknown figure %q (want one of %s)", s.Figure, strings.Join(Figures, ", "))
	case KindThermalPlaceCompare:
		if s.ThermalWeight <= 0 || s.ThermalWeight > 1000 {
			return fmt.Errorf("jobs: thermal weight %g outside (0, 1000]", s.ThermalWeight)
		}
		if s.ThermalRadius < 0 || s.ThermalRadius > 64 {
			return fmt.Errorf("jobs: thermal kernel radius %d outside [0, 64]", s.ThermalRadius)
		}
		return checkAmbient(s.AmbientC)
	default:
		return fmt.Errorf("jobs: unknown kind %q", s.Kind)
	}
}

// Key returns the canonical content key of the spec: only the fields the
// kind actually reads participate, so stray fields (a guardband spec
// carrying a leftover ambient list, say) cannot split the dedup. Floats are
// rendered with %g — exact for round-trip — and the whole string is
// sha256-hashed to a fixed-width hex key.
func (s Spec) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind:%s", s.Kind)
	switch s.Kind {
	case KindGuardband:
		fmt.Fprintf(&b, "|bench:%s|ambient:%g", s.Benchmark, unsigned(s.AmbientC))
	case KindSweep:
		fmt.Fprintf(&b, "|bench:%s|ambients:", s.Benchmark)
		for i, a := range s.Ambients {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", a)
		}
	case KindFigure:
		fmt.Fprintf(&b, "|figure:%s", s.Figure)
	case KindThermalPlaceCompare:
		fmt.Fprintf(&b, "|ambient:%g|w:%g|r:%d", unsigned(s.AmbientC), s.ThermalWeight, s.ThermalRadius)
	case KindMinEnergy:
		fmt.Fprintf(&b, "|bench:%s|target:%g|ambients:", s.Benchmark, unsigned(s.TargetMHz))
		for i, a := range s.Ambients {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", a)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// unsigned drops the sign of a zero in a scalar the key renders: -0
// computes what 0 does, and JSON omits a zero scalar (omitempty), so a
// signed zero would change a spec's key across its spec file's round trip.
func unsigned(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}
