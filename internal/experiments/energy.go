package experiments

import (
	"fmt"
	"sort"
	"strings"

	"tafpga/internal/flow"
	"tafpga/internal/guardband"
)

// EnergyRow is one (benchmark, ambient) cell of the min-energy analogue of
// Figs. 6/7: instead of converting the recovered thermal margin into clock
// frequency, the row reports the minimum safe core rail — and the resulting
// power and energy-per-cycle saving — at iso-frequency.
type EnergyRow struct {
	Name     string
	AmbientC float64
	// TargetMHz is the iso-frequency constraint (the benchmark's own
	// conventional worst-case clock unless overridden); BaselineMHz echoes
	// that conventional clock.
	TargetMHz, BaselineMHz float64
	// NominalVddV / MinVddV bracket the recovered voltage headroom.
	NominalVddV, MinVddV float64
	// NominalPowerUW / PowerUW are the converged total power at the target
	// frequency on each rail; SavingsPct is the iso-frequency saving.
	NominalPowerUW, PowerUW float64
	SavingsPct              float64
	// EnergyPJ / NominalEnergyPJ are pJ per clock cycle at each rail.
	EnergyPJ, NominalEnergyPJ float64
	// FmaxMHz is the margined timing headroom at MinVddV.
	FmaxMHz float64
	// Feasible is false when the target exceeds the nominal rail's reach
	// (the row then echoes the nominal operating point).
	Feasible bool
	// Probes / Iterations count the bisection probes and their total
	// power→thermal convergence rounds; Converged flags the winning probe.
	Probes, Iterations int
	Converged          bool
	// RiseC is the converged die heating at the minimum rail.
	RiseC float64
	// Stats accounts the kernel work of the whole search.
	Stats guardband.Stats
}

// energyOptions builds the min-energy options for one benchmark run,
// threading the context's cancellation and probe callback, mirroring
// gbOptions.
func (c *Context) energyOptions(name string, ambientC, targetMHz float64) guardband.EnergyOptions {
	opts := guardband.DefaultEnergyOptions(ambientC)
	opts.Ctx = c.Ctx
	opts.TargetMHz = targetMHz
	if cb := c.OnProgress; cb != nil {
		opts.OnProbe = func(p guardband.EnergyProbe) {
			cb(name, guardband.Progress{
				Iteration: p.Probe, AmbientC: p.AmbientC,
				FmaxMHz: p.FmaxMHz, Converged: p.Feasible,
				VddV: p.VddV,
			})
		}
	}
	return opts
}

// EnergySweep runs the min-energy objective over the suite, one EnergyOn
// cell per benchmark. targetMHz 0 holds each benchmark at its own
// conventional worst-case clock (the iso-frequency comparison of the
// scorecard); a positive value pins every run to that clock. Rows are
// benchmark-major in suite order, one row per ambient; on error the rows
// of the finished benchmarks are returned alongside it (the fan-out's
// partial rule).
func (c *Context) EnergySweep(ambients []float64, targetMHz float64) ([]EnergyRow, error) {
	if len(ambients) == 0 {
		return nil, fmt.Errorf("experiments: energy sweep needs at least one ambient")
	}
	if err := guardband.CheckAmbient(ambients...); err != nil {
		return nil, err
	}
	names := c.Suite()
	groups, err := fanOut(c, names, func(i int) ([]EnergyRow, error) {
		im, err := c.Implementation(names[i])
		if err != nil {
			return nil, err
		}
		return c.EnergyOn(im, names[i], ambients, targetMHz)
	})
	var rows []EnergyRow
	for _, g := range groups {
		rows = append(rows, g...)
	}
	return rows, err
}

// EnergyOn runs the min-energy search on im at each ambient in order, one
// voltage bisection per ambient. The ambients share one flow.VddLab, so
// every probed rail pays its device re-characterization once; they run in
// sequence, so a fan-out over benchmarks never nests another. On error the
// rows of the finished ambients are returned alongside it.
func (c *Context) EnergyOn(im *flow.Implementation, name string, ambients []float64, targetMHz float64) ([]EnergyRow, error) {
	lab := flow.NewVddLab(im)
	rows := make([]EnergyRow, 0, len(ambients))
	for _, amb := range ambients {
		res, err := lab.MinEnergy(c.energyOptions(name, amb, targetMHz))
		if err != nil {
			return rows, fmt.Errorf("experiments: %s at %g°C: %w", name, amb, err)
		}
		rows = append(rows, EnergyRow{
			Name: name, AmbientC: amb,
			TargetMHz: res.TargetMHz, BaselineMHz: res.BaselineMHz,
			NominalVddV: res.NominalVddV, MinVddV: res.MinVddV,
			NominalPowerUW: res.NominalPowerUW, PowerUW: res.PowerUW,
			SavingsPct: res.SavingsPct,
			EnergyPJ:   res.EnergyPJ, NominalEnergyPJ: res.NominalEnergyPJ,
			FmaxMHz: res.FmaxMHz, Feasible: res.Feasible,
			Probes: res.Probes, Iterations: res.Iterations,
			Converged: res.Converged, RiseC: res.RiseC,
			Stats: res.Stats,
		})
	}
	return rows, nil
}

// AverageSavings returns the mean iso-frequency power saving of the rows at
// one ambient (the energy scorecard's headline per column).
func AverageSavings(rows []EnergyRow, ambientC float64) float64 {
	n, s := 0, 0.0
	for _, r := range rows {
		if r.AmbientC == ambientC {
			s += r.SavingsPct
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// InfeasibleEnergy returns the names of rows whose target was out of reach
// at the nominal rail, labelled with their ambient, in row order.
func InfeasibleEnergy(rows []EnergyRow) []string {
	var names []string
	for _, r := range rows {
		if !r.Feasible {
			names = append(names, fmt.Sprintf("%s@%g", r.Name, r.AmbientC))
		}
	}
	return names
}

// FormatEnergySweep renders the min-energy rows as the energy/op scorecard:
// per benchmark and ambient the minimum safe rail, the iso-frequency power
// on both rails, and the energy-per-cycle saving.
func FormatEnergySweep(title string, rows []EnergyRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "  %-18s %8s %10s %9s %9s %11s %11s %9s %8s\n",
		"benchmark", "Tamb(C)", "target", "Vnom(V)", "Vmin(V)", "Pnom(uW)", "Pmin(uW)", "save(%)", "pJ/cyc")
	ambients := map[float64]bool{}
	for _, r := range rows {
		warn := ""
		if !r.Feasible {
			warn = "  [INFEASIBLE]"
		} else if !r.Converged {
			warn = "  [UNCONVERGED]"
		}
		fmt.Fprintf(&b, "  %-18s %8.1f %10.1f %9.3f %9.3f %11.1f %11.1f %9.2f %8.3f%s\n",
			r.Name, r.AmbientC, r.TargetMHz, r.NominalVddV, r.MinVddV,
			r.NominalPowerUW, r.PowerUW, r.SavingsPct, r.EnergyPJ, warn)
		ambients[r.AmbientC] = true
	}
	for _, amb := range sortedKeys(ambients) {
		fmt.Fprintf(&b, "  %-18s %8.1f %54s %9.2f\n",
			"average", amb, "", AverageSavings(rows, amb))
	}
	if inf := InfeasibleEnergy(rows); len(inf) > 0 {
		fmt.Fprintf(&b, "  warning: target out of reach at nominal rail for: %s\n",
			strings.Join(inf, ", "))
	}
	return b.String()
}

// sortedKeys returns the ambient set in ascending order.
func sortedKeys(set map[float64]bool) []float64 {
	out := make([]float64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Float64s(out)
	return out
}
