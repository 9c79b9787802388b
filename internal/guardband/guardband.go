// Package guardband implements the paper's core contribution, Algorithm 1
// (thermal-aware guardbanding): starting from the ambient temperature, it
// iterates temperature-aware timing analysis → (frequency-, activity-, and
// temperature-dependent) power estimation → steady-state thermal simulation
// until the per-tile temperature map converges, then sets the clock with
// only a small δT margin instead of the conventional worst-case-corner
// guardband.
package guardband

import (
	"context"
	"fmt"

	"tafpga/internal/coffe"
	"tafpga/internal/hotspot"
	"tafpga/internal/power"
	"tafpga/internal/sta"
)

// Options tunes Algorithm 1.
type Options struct {
	// AmbientC is the ambient (initial junction) temperature T_amb.
	AmbientC float64
	// DeltaTC is the convergence threshold and final safety margin δT.
	DeltaTC float64
	// WorstCaseC is the conventional guardband corner T_worst for the
	// baseline (100 °C in the paper).
	WorstCaseC float64
	// MaxIters bounds the convergence loop; the paper observes fewer than
	// ten iterations.
	MaxIters int
	// UniformT, when set, collapses the temperature map to its hottest
	// tile each iteration — the single-temperature assumption of prior
	// work ([12]) that the paper argues is pessimistic. Used for ablation.
	UniformT bool
	// FreezeLeakage, when set, evaluates leakage at T_amb instead of the
	// iterated temperatures, disabling the leakage-temperature feedback
	// loop. Used for ablation.
	FreezeLeakage bool
	// Deprecated: ignored; the thermal solve is exact
	ThermalSeed []float64
	// Ctx, when non-nil, is checked at the top of every Algorithm-1
	// iteration: a cancelled or expired context stops the run between
	// iterations and Run returns the (wrapped) context error. A nil Ctx
	// never cancels, so existing callers are unaffected.
	Ctx context.Context
	// OnIteration, when set, receives one Progress per convergence
	// iteration, after its thermal solve. The callback observes the run —
	// it cannot alter any reported number.
	OnIteration func(Progress)
}

// Progress is one Algorithm-1 iteration as seen by Options.OnIteration:
// enough to stream a live convergence trace without carrying the whole
// temperature map.
type Progress struct {
	// Iteration counts from 1.
	Iteration int
	// AmbientC is the ambient temperature of the run (the lane's ambient in
	// a batched sweep, where iterations from several lanes interleave).
	AmbientC float64
	// FmaxMHz is the timing result at the iteration's input temperatures —
	// or, on a min-energy probe's iteration, the pinned target clock.
	FmaxMHz float64
	// MaxDeltaC is the infinity-norm change of the temperature map this
	// iteration (compared against δT for convergence).
	MaxDeltaC float64
	// MaxC is the hottest tile after the iteration's thermal solve.
	MaxC float64
	// Converged marks the iteration that met the δT threshold.
	Converged bool
	// VddV is the probe's candidate core rail on a min-energy iteration
	// (RunEnergy); 0 on the fmax objective's iteration events, whose runs
	// never leave the nominal rail.
	VddV float64
}

// MinAmbientC and MaxAmbientC bound the ambients Algorithm 1 accepts (the
// military operating range). The thermal and device models were never
// calibrated outside it, and a non-finite ambient would index the device
// tables out of range.
const (
	MinAmbientC = -55
	MaxAmbientC = 150
)

// CheckAmbient rejects a non-finite ambient or one outside [MinAmbientC,
// MaxAmbientC]. Every entry point checks its ambients with it, and so does
// the daemon's admission control.
func CheckAmbient(c float64) error {
	if !(c >= MinAmbientC && c <= MaxAmbientC) { // NaN fails both comparisons
		return fmt.Errorf("guardband: ambient %g°C outside [%d, %d]", c, MinAmbientC, MaxAmbientC)
	}
	return nil
}

// DefaultOptions returns the paper's experimental settings.
func DefaultOptions(ambientC float64) Options {
	return Options{AmbientC: ambientC, DeltaTC: 0.5, WorstCaseC: 100, MaxIters: 20}
}

// Result reports one guardbanding run.
type Result struct {
	// FmaxMHz is the thermally-aware frequency (Algorithm 1's output).
	FmaxMHz float64
	// BaselineMHz is the conventional frequency assuming T_worst on every
	// tile.
	BaselineMHz float64
	// Converged is true when the temperature map met the δT threshold
	// within MaxIters. When false, Temps (and the frequency derived from
	// it) are the last iterate of an unconverged loop and should be
	// treated as an estimate, not an operating point.
	Converged bool
	// GainPct is the performance improvement of thermal-aware guardbanding
	// over the worst-case baseline, in percent.
	GainPct float64
	// Iterations is the number of timing/power/thermal rounds to converge.
	Iterations int
	// Temps is the converged per-tile temperature map.
	Temps []float64
	// RiseC is the mean converged rise over ambient.
	RiseC float64
	// SpreadC is the converged on-chip temperature variation.
	SpreadC float64
	// Breakdown is the critical-path composition at the converged corner.
	Breakdown map[coffe.ResourceKind]float64
	// Stats accounts the kernel work (probes, solves, wall time) the run
	// performed.
	Stats Stats
	// SeedTemps is the raw solver output of the final iteration, before any
	// UniformT collapse.
	SeedTemps []float64
}

// normalize fills unset options with the paper's default values.
func (o *Options) normalize() {
	if o.MaxIters <= 0 {
		o.MaxIters = 20
	}
	if o.DeltaTC <= 0 {
		o.DeltaTC = 0.5
	}
}

// Run executes Algorithm 1 on one routed implementation.
func Run(an *sta.Analyzer, pm *power.Model, th *hotspot.Model, opts Options) (*Result, error) {
	if err := CheckAmbient(opts.AmbientC); err != nil {
		return nil, err
	}
	opts.normalize()
	ln := &lane{ambientC: opts.AmbientC}
	worst := baseline(an, opts, &ln.res.Stats)
	if err := converge(an, pm, th, []*lane{ln}, opts); err != nil {
		return nil, err
	}
	return ln.result(worst), nil
}
