package experiments

import (
	"fmt"
	"strings"

	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/hotspot"
)

// ThermalCompareResult is one row of the thermal-aware-vs-baseline
// placement comparison: the same benchmark taken through the full
// Algorithm-1 guardband twice, once per placement.
type ThermalCompareResult struct {
	Name string
	// Baseline* are the thermally-oblivious placement's converged
	// numbers; Thermal* the thermal-aware placement's.
	BaselineMHz, ThermalMHz     float64
	BaselinePeakC, ThermalPeakC float64
	// DeltaPeakC is ThermalPeakC − BaselinePeakC (negative = the
	// thermal-aware placement runs cooler).
	DeltaPeakC float64
	// DeltaFmaxPct is the guardbanded-fmax change in percent (positive =
	// the thermal-aware placement also clocks faster).
	DeltaFmaxPct float64
	// Converged is false when either phase exhausted Algorithm 1's
	// iteration budget.
	Converged bool
	// Stats sums the kernel accounting of both phases.
	Stats guardband.Stats
}

// ThermalPlaceCompare runs every suite benchmark twice through the full
// Algorithm-1 guardband at ambientC — once with today's thermally-
// oblivious placement, once with thermal-aware placement under tp — and
// reports per benchmark the converged peak-temperature delta and the
// guardbanded-fmax delta. Both phases share the context's variant-keyed
// implementation cache, so repeated calls (and any overlap with Fig. 6/7)
// never pay a placement twice. Progress events are labelled
// "<bench>/baseline" and "<bench>/thermal" so a streaming consumer can
// attribute iterations to their phase.
func (c *Context) ThermalPlaceCompare(ambientC float64, tp flow.ThermalPlace) ([]ThermalCompareResult, error) {
	if err := checkAmbients(ambientC); err != nil {
		return nil, err
	}
	out, done, err := forEachBench(c, c.suite(), func(name string) (ThermalCompareResult, error) {
		imB, err := c.Implementation(name)
		if err != nil {
			return ThermalCompareResult{}, err
		}
		rB, err := imB.Guardband(c.gbOptions(name+"/baseline", ambientC))
		if err != nil {
			return ThermalCompareResult{}, fmt.Errorf("experiments: %s baseline: %w", name, err)
		}
		imT, err := c.ThermalImplementation(name, tp)
		if err != nil {
			return ThermalCompareResult{}, err
		}
		rT, err := imT.Guardband(c.gbOptions(name+"/thermal", ambientC))
		if err != nil {
			return ThermalCompareResult{}, fmt.Errorf("experiments: %s thermal: %w", name, err)
		}
		dFmax := 0.0
		if rB.FmaxMHz > 0 {
			dFmax = (rT.FmaxMHz/rB.FmaxMHz - 1) * 100
		}
		stats := rB.Stats
		stats.Add(rT.Stats)
		peakB, peakT := hotspot.Max(rB.Temps), hotspot.Max(rT.Temps)
		return ThermalCompareResult{
			Name:        name,
			BaselineMHz: rB.FmaxMHz, ThermalMHz: rT.FmaxMHz,
			BaselinePeakC: peakB, ThermalPeakC: peakT,
			DeltaPeakC:   peakT - peakB,
			DeltaFmaxPct: dFmax,
			Converged:    rB.Converged && rT.Converged,
			Stats:        stats,
		}, nil
	})
	if err != nil {
		return completed(out, done), err
	}
	return out, nil
}

// FormatThermalCompare renders the comparison as the ΔT_peak / Δf table.
func FormatThermalCompare(title string, rs []ThermalCompareResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "  %-18s %10s %10s %8s %10s %10s %8s\n",
		"benchmark", "peakB(C)", "peakT(C)", "dT(C)", "base MHz", "therm MHz", "df(%)")
	cooler, nonInferior := 0, 0
	var dT, dF float64
	for _, r := range rs {
		warn := ""
		if !r.Converged {
			warn = "  [UNCONVERGED]"
		}
		fmt.Fprintf(&b, "  %-18s %10.2f %10.2f %8.2f %10.1f %10.1f %8.2f%s\n",
			r.Name, r.BaselinePeakC, r.ThermalPeakC, r.DeltaPeakC,
			r.BaselineMHz, r.ThermalMHz, r.DeltaFmaxPct, warn)
		if r.DeltaPeakC < 0 {
			cooler++
		}
		if r.DeltaFmaxPct >= 0 {
			nonInferior++
		}
		dT += r.DeltaPeakC
		dF += r.DeltaFmaxPct
	}
	if n := len(rs); n > 0 {
		fmt.Fprintf(&b, "  %-18s %10s %10s %8.2f %10s %10s %8.2f\n",
			"average", "", "", dT/float64(n), "", "", dF/float64(n))
		fmt.Fprintf(&b, "  cooler on %d/%d benchmarks, fmax non-inferior on %d/%d\n",
			cooler, n, nonInferior, n)
	}
	return b.String()
}
