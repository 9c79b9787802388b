package experiments

import (
	"fmt"
	"strings"

	"tafpga/internal/flow"
	"tafpga/internal/guardband"
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

// ablationCase is one row of an ablation study: its label and what it
// changes against the baseline run — the Algorithm-1 options (tune, nil =
// none) or the placement effort of a fresh build (effort, 0 = the shared
// implementation).
type ablationCase struct {
	label  string
	tune   func(*guardband.Options)
	effort float64
}

// ablate runs every (case, benchmark) cell of an ablation study through
// one fan-out and reports each case's mean gain over the ablation
// benchmarks, summed in benchmark order so the mean is order-stable; with
// rise set the row's detail also carries the mean die heating.
func (c *Context) ablate(ambientC float64, cases []ablationCase, rise bool) ([]AblationRow, error) {
	nb := len(ablationBenchmarks)
	cells := make([]string, 0, len(cases)*nb)
	for range cases {
		cells = append(cells, ablationBenchmarks...)
	}
	results, err := fanOut(c, cells, func(i int) (*guardband.Result, error) {
		cs, name := cases[i/nb], cells[i]
		var im *flow.Implementation
		var err error
		if cs.effort > 0 {
			im, err = c.implement(name, flow.ThermalPlace{}, cs.effort)
		} else {
			im, err = c.Implementation(name)
		}
		if err != nil {
			return nil, err
		}
		opts := c.gbOptions(name, ambientC)
		if cs.tune != nil {
			cs.tune(&opts)
		}
		return im.Guardband(opts)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(cases))
	for k, cs := range cases {
		gain, heat := 0.0, 0.0
		for _, res := range results[k*nb : (k+1)*nb] {
			gain += res.GainPct
			heat += res.RiseC
		}
		rows[k] = AblationRow{Label: cs.label, GainPct: gain / float64(nb)}
		if rise {
			rows[k].Detail = fmt.Sprintf("mean rise %.2fC", heat/float64(nb))
		}
	}
	return rows, nil
}

// AblationDeltaT sweeps Algorithm 1's δT margin: a tighter margin converts
// convergence slack directly into frequency, a looser one re-creates a
// mini worst-case guardband.
func (c *Context) AblationDeltaT(ambientC float64) ([]AblationRow, error) {
	var cases []ablationCase
	for _, dt := range []float64{0.25, 0.5, 1, 2, 5, 10} {
		cases = append(cases, ablationCase{
			label: fmt.Sprintf("deltaT=%.2fC", dt),
			tune:  func(o *guardband.Options) { o.DeltaTC = dt },
		})
	}
	return c.ablate(ambientC, cases, false)
}

// AblationUniformT compares per-tile temperatures against the
// single-chip-temperature assumption of prior work ([12] in the paper):
// collapsing the map to its hottest tile forfeits the spatial headroom.
func (c *Context) AblationUniformT(ambientC float64) ([]AblationRow, error) {
	return c.ablate(ambientC, []ablationCase{
		{label: "per-tile T (this work)"},
		{label: "uniform worst T ([12]-style)", tune: func(o *guardband.Options) { o.UniformT = true }},
	}, false)
}

// AblationNoLeakFeedback disables the leakage-temperature feedback loop —
// the power-temperature positive feedback the introduction motivates.
func (c *Context) AblationNoLeakFeedback(ambientC float64) ([]AblationRow, error) {
	return c.ablate(ambientC, []ablationCase{
		{label: "leakage(T) feedback on"},
		{label: "leakage frozen at Tamb", tune: func(o *guardband.Options) { o.FreezeLeakage = true }},
	}, true)
}

// AblationPlacement compares timing-driven annealing effort levels: the
// guardbanding gain is measured on top of whatever implementation quality
// placement delivers. Each effort gets a fresh build with Implementation's
// recipe, so only the effort differs.
func (c *Context) AblationPlacement(ambientC float64) ([]AblationRow, error) {
	return c.ablate(ambientC, []ablationCase{
		{label: "place effort 0.1", effort: 0.1},
		{label: "place effort 1.0", effort: 1.0},
	}, false)
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
