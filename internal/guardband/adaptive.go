package guardband

import (
	"fmt"
	"strings"

	"tafpga/internal/faults"
	"tafpga/internal/hotspot"
	"tafpga/internal/power"
	"tafpga/internal/sta"
)

// ProfilePoint is one epoch of a field ambient-temperature profile.
type ProfilePoint struct {
	// Hours is the epoch duration.
	Hours float64
	// AmbientC is the ambient temperature during the epoch.
	AmbientC float64
}

// Epoch is the adaptive clock decision for one profile point.
type Epoch struct {
	ProfilePoint
	// FmaxMHz is the thermal-aware clock for the epoch.
	FmaxMHz float64
	// RiseC is the converged die heating during the epoch.
	RiseC float64
}

// AdaptiveResult summarizes thermal-aware frequency adaptation over a field
// profile — the dynamic-scaling extension the paper positions against the
// online approaches of its related work ([10]–[13]): instead of inserting
// measurement circuits, the offline flow precomputes a frequency table per
// ambient condition.
type AdaptiveResult struct {
	Epochs []Epoch
	// BaselineMHz is the conventional worst-case clock the whole profile
	// would otherwise run at.
	BaselineMHz float64
	// TimeAvgFmaxMHz is the duration-weighted mean adaptive clock.
	TimeAvgFmaxMHz float64
	// AvgGainPct is the duration-weighted throughput gain over the
	// baseline.
	AvgGainPct float64
	// SettleS is the die thermal settle time (informational: epochs are
	// assumed long against it, which holds for any profile in hours). Only
	// meaningful when SettleErr is empty.
	SettleS float64
	// SettleErr records why the settle-time estimate is unavailable; the
	// rendered table shows "n/a" instead of a bogus 0.000 s.
	SettleErr string
	// Stats aggregates the kernel work across all epochs (plus the shared
	// baseline probe).
	Stats Stats
}

// RunAdaptive runs Algorithm 1 once per profile epoch and aggregates the
// duration-weighted gain. The options' AmbientC is ignored; everything else
// (δT, worst case, ablation knobs) applies to every epoch.
func RunAdaptive(an *sta.Analyzer, pm *power.Model, th *hotspot.Model, profile []ProfilePoint, opts Options) (*AdaptiveResult, error) {
	if len(profile) == 0 {
		return nil, fmt.Errorf("guardband: empty ambient profile")
	}
	res := &AdaptiveResult{}
	o := opts
	o.normalize()
	// The conventional worst-case baseline depends only on the
	// implementation and T_worst, not on the epoch ambient: analyze it
	// once and share it across every epoch.
	worst := baseline(an, o, &res.Stats)
	res.BaselineMHz = worst.FmaxMHz
	totalH := 0.0
	weighted := 0.0
	for _, pt := range profile {
		if pt.Hours <= 0 {
			return nil, fmt.Errorf("guardband: non-positive epoch duration %g h", pt.Hours)
		}
		ln := &lane{ambientC: pt.AmbientC}
		if err := converge(an, pm, th, []*lane{ln}, o); err != nil {
			return nil, fmt.Errorf("guardband: epoch at %g°C: %w", pt.AmbientC, err)
		}
		r := &ln.res
		res.Epochs = append(res.Epochs, Epoch{ProfilePoint: pt, FmaxMHz: r.FmaxMHz, RiseC: r.RiseC})
		res.Stats.Add(r.Stats)
		totalH += pt.Hours
		weighted += pt.Hours * r.FmaxMHz
	}
	res.TimeAvgFmaxMHz = weighted / totalH
	if res.BaselineMHz > 0 {
		res.AvgGainPct = (res.TimeAvgFmaxMHz/res.BaselineMHz - 1) * 100
	}

	// Report the thermal settle time so callers can sanity-check that their
	// epochs are long against it. The estimate is informational — every
	// epoch above is already valid — so a failed estimate is surfaced in
	// SettleErr (rendered as "n/a") rather than failing the whole run or,
	// worse, reporting a bogus 0.000 s.
	n := an.PL.Grid.NumTiles()
	idle := pm.Vector(0, sta.UniformTemps(n, profile[0].AmbientC))
	start := sta.UniformTemps(n, profile[0].AmbientC)
	if err := faults.Check("guardband.settle"); err != nil {
		res.SettleErr = err.Error()
	} else if ts, err := th.SettleTime(start, idle, profile[0].AmbientC); err != nil {
		res.SettleErr = err.Error()
	} else {
		res.SettleS = ts
	}
	return res, nil
}

// String renders the adaptation table.
func (r *AdaptiveResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %12s %8s\n", "hours", "Tamb(C)", "fmax(MHz)", "rise(C)")
	for _, e := range r.Epochs {
		fmt.Fprintf(&b, "%10.1f %10.1f %12.1f %8.2f\n", e.Hours, e.AmbientC, e.FmaxMHz, e.RiseC)
	}
	settle := fmt.Sprintf("die settles in %.3f s", r.SettleS)
	if r.SettleErr != "" {
		settle = "die settle time n/a (" + r.SettleErr + ")"
	}
	// %+.1f renders the sign from the value itself: a hardcoded "+" would
	// print a negative gain as "(+-1.2%)".
	fmt.Fprintf(&b, "baseline %0.1f MHz; time-averaged %0.1f MHz (%+.1f%%); %s\n",
		r.BaselineMHz, r.TimeAvgFmaxMHz, r.AvgGainPct, settle)
	return b.String()
}
