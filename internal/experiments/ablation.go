package experiments

import (
	"fmt"
	"strings"

	"tafpga/internal/flow"
	"tafpga/internal/guardband"

	"tafpga/internal/bench"
)

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Label   string
	GainPct float64
	Detail  string
}

// ablationBenchmarks is the small representative set used by the ablation
// studies (one logic-heavy, one BRAM-heavy, one DSP-heavy design).
var ablationBenchmarks = []string{"sha", "mkPktMerge", "raygentop"}

// ablationMean runs Algorithm 1 with per-configuration options over the
// ablation benchmark set on the worker pool and returns the mean result
// per benchmark in input order, so the averaging below is order-stable.
func (c *Context) ablationMean(ambientC float64, tune func(*guardband.Options)) ([]*guardband.Result, error) {
	out, _, err := forEachBench(c, ablationBenchmarks, func(name string) (*guardband.Result, error) {
		im, err := c.Implementation(name)
		if err != nil {
			return nil, err
		}
		opts := c.gbOptions(name, ambientC)
		if tune != nil {
			tune(&opts)
		}
		return im.Guardband(opts)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AblationDeltaT sweeps Algorithm 1's δT margin: a tighter margin converts
// convergence slack directly into frequency, a looser one re-creates a
// mini worst-case guardband.
func (c *Context) AblationDeltaT(ambientC float64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, dt := range []float64{0.25, 0.5, 1, 2, 5, 10} {
		results, err := c.ablationMean(ambientC, func(o *guardband.Options) { o.DeltaTC = dt })
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, res := range results {
			sum += res.GainPct
		}
		rows = append(rows, AblationRow{
			Label:   fmt.Sprintf("deltaT=%.2fC", dt),
			GainPct: sum / float64(len(results)),
		})
	}
	return rows, nil
}

// AblationUniformT compares per-tile temperatures against the
// single-chip-temperature assumption of prior work ([12] in the paper):
// collapsing the map to its hottest tile forfeits the spatial headroom.
func (c *Context) AblationUniformT(ambientC float64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, uniform := range []bool{false, true} {
		label := "per-tile T (this work)"
		if uniform {
			label = "uniform worst T ([12]-style)"
		}
		results, err := c.ablationMean(ambientC, func(o *guardband.Options) { o.UniformT = uniform })
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, res := range results {
			sum += res.GainPct
		}
		rows = append(rows, AblationRow{Label: label, GainPct: sum / float64(len(results))})
	}
	return rows, nil
}

// AblationNoLeakFeedback disables the leakage-temperature feedback loop —
// the power-temperature positive feedback the introduction motivates.
func (c *Context) AblationNoLeakFeedback(ambientC float64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, freeze := range []bool{false, true} {
		label := "leakage(T) feedback on"
		if freeze {
			label = "leakage frozen at Tamb"
		}
		results, err := c.ablationMean(ambientC, func(o *guardband.Options) { o.FreezeLeakage = freeze })
		if err != nil {
			return nil, err
		}
		sum, rise := 0.0, 0.0
		for _, res := range results {
			sum += res.GainPct
			rise += res.RiseC
		}
		n := float64(len(results))
		rows = append(rows, AblationRow{
			Label: label, GainPct: sum / n,
			Detail: fmt.Sprintf("mean rise %.2fC", rise/n),
		})
	}
	return rows, nil
}

// AblationPlacement compares timing-driven annealing effort levels: the
// guardbanding gain is measured on top of whatever implementation quality
// placement delivers.
func (c *Context) AblationPlacement(ambientC float64) ([]AblationRow, error) {
	dev, err := c.Device(25)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, effort := range []float64{0.1, 1.0} {
		label := fmt.Sprintf("place effort %.1f", effort)
		results, _, err := forEachBench(c, ablationBenchmarks, func(name string) (*guardband.Result, error) {
			// A fresh implementation at this effort, built with
			// Implementation's recipe so only the effort differs.
			p, err := bench.ByName(name)
			if err != nil {
				return nil, err
			}
			opts := c.FlowOptions(p, flow.ThermalPlace{})
			opts.PlaceEffort = effort
			nl, err := bench.Generate(p.Scaled(c.Scale), opts.Seed)
			if err != nil {
				return nil, err
			}
			im, err := flow.Implement(nl, dev, opts)
			if err != nil {
				return nil, err
			}
			return im.Guardband(c.gbOptions(name, ambientC))
		})
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, res := range results {
			sum += res.GainPct
		}
		rows = append(rows, AblationRow{Label: label, GainPct: sum / float64(len(results))})
	}
	return rows, nil
}

// FormatAblation renders an ablation result set.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-32s %6.1f%%  %s\n", r.Label, r.GainPct, r.Detail)
	}
	return b.String()
}
