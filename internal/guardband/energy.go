package guardband

// energy.go is the min-energy objective: instead of spending the thermal
// margin Algorithm 1 recovers on frequency (objective: fmax), spend it on
// supply-voltage reduction at iso-frequency (objective: min-energy) — the
// authors' follow-up direction ("FPGA Energy Efficiency by Leveraging
// Thermal Margin"). Given a target clock, RunEnergy bisects the minimum
// safe Vdd: each probe re-derives the timing/power models at the candidate
// rail on the *same* routed implementation and re-converges the Algorithm-1
// power→thermal loop at the pinned frequency, then one final margined STA
// probe decides whether the rail still meets the target. A rail that cannot
// conduct at the probe's ambient (techmodel.ErrNonConducting — Vth rises at
// cold corners) is an infeasible search bound, never a panic.

import (
	"errors"
	"fmt"

	"tafpga/internal/hotspot"
	"tafpga/internal/power"
	"tafpga/internal/sta"
	"tafpga/internal/techmodel"
)

// EnergyModels bundles the per-rail analysis models of one voltage probe:
// the same trio Run consumes, re-characterized at a candidate supply on an
// unchanged placement and routing.
type EnergyModels struct {
	Timing  *sta.Analyzer
	Power   *power.Model
	Thermal *hotspot.Model
}

// EnergyOptions tunes RunEnergy. The embedded Options carry the Algorithm-1
// knobs (ambient, δT, iteration budget, worst-case corner, cancellation).
type EnergyOptions struct {
	Options

	// TargetMHz is the iso-frequency constraint. 0 selects the conventional
	// worst-case baseline clock at the nominal rail — the frequency a
	// thermally-oblivious flow would have shipped, so the whole recovered
	// margin is converted to voltage headroom.
	TargetMHz float64
	// NominalVddV is the rail the implementation's models were built at
	// (the bisection's upper bound). Required.
	NominalVddV float64
	// VddMinV is the search floor in volts (default 0.45 — below every
	// conduction threshold of the default kit, so the binding floor is
	// normally ErrNonConducting, not this knob).
	VddMinV float64
	// VddTolV is the bisection tolerance in volts (default 0.005).
	VddTolV float64
	// ModelsAt derives the analysis models at a candidate rail. Required.
	// An error classifying as techmodel.ErrNonConducting marks the rail
	// infeasible (a search bound); any other error aborts the run.
	ModelsAt func(vddV float64) (EnergyModels, error)
	// OnProbe, when set, receives one EnergyProbe per bisection probe,
	// after its convergence loop. The callback observes the search — it
	// cannot alter any reported number.
	OnProbe func(EnergyProbe)
}

// DefaultEnergyOptions returns the min-energy settings at an ambient:
// Algorithm-1 defaults plus the standard search floor and tolerance.
func DefaultEnergyOptions(ambientC float64) EnergyOptions {
	return EnergyOptions{Options: DefaultOptions(ambientC), VddMinV: 0.45, VddTolV: 0.005}
}

// EnergyProbe is one bisection probe as seen by EnergyOptions.OnProbe.
type EnergyProbe struct {
	// Probe counts from 1 in search order.
	Probe int
	// VddV is the candidate rail.
	VddV float64
	// AmbientC is the ambient temperature of the run.
	AmbientC float64
	// Feasible reports whether the rail conducts, converges, and meets the
	// target frequency with the δT margin.
	Feasible bool
	// NonConducting marks a rail rejected by the device physics
	// (techmodel.ErrNonConducting) before any model was derived.
	NonConducting bool
	// FmaxMHz is the margined timing result at the probe rail (0 when the
	// rail does not conduct).
	FmaxMHz float64
	// PowerUW is the converged total power at the target frequency.
	PowerUW float64
	// Iterations is the probe's power→thermal convergence round count.
	Iterations int
	// Converged reports the probe's δT convergence.
	Converged bool
	// LoV and HiV are the search bracket after the probe.
	LoV, HiV float64
}

// EnergyResult reports one min-energy search.
type EnergyResult struct {
	// AmbientC is the ambient temperature of the run.
	AmbientC float64
	// TargetMHz is the iso-frequency constraint the search held.
	TargetMHz float64
	// BaselineMHz is the conventional worst-case clock at the nominal rail
	// (the default target).
	BaselineMHz float64
	// NominalVddV / NominalPowerUW describe the nominal rail converged at
	// the target frequency — the "before" side of the savings.
	NominalVddV    float64
	NominalPowerUW float64
	// Feasible reports whether any rail (including nominal) met the target;
	// false means the target exceeds what the implementation can clock even
	// at full supply, and the Min* fields echo the nominal rail.
	Feasible bool
	// MinVddV is the minimum safe rail found (within VddTolV).
	MinVddV float64
	// PowerUW is the converged total power at MinVddV and the target.
	PowerUW float64
	// FmaxMHz is the margined timing headroom at MinVddV (≥ TargetMHz).
	FmaxMHz float64
	// SavingsPct is the iso-frequency power (= energy) saving vs nominal.
	SavingsPct float64
	// EnergyPJ and NominalEnergyPJ are pJ per clock cycle (P/f) at the
	// minimum and nominal rails.
	EnergyPJ, NominalEnergyPJ float64
	// Probes counts the bisection probes (nominal probe included).
	Probes int
	// Iterations totals the power→thermal convergence rounds across probes.
	Iterations int
	// Converged reports δT convergence of the winning (MinVddV) probe.
	Converged bool
	// Temps is the converged per-tile temperature map at MinVddV.
	Temps []float64
	// RiseC is the mean converged rise over ambient at MinVddV.
	RiseC float64
	// Stats accounts the kernel work across all probes.
	Stats Stats
}

// RunEnergy executes the min-energy objective: bisect the minimum supply
// that still meets the target frequency through the full Algorithm-1
// convergence at the run's ambient. Infeasibility of the target at the
// nominal rail is reported in the result (Feasible=false), not as an error;
// only cancellation, solver failures, and non-classified model errors
// abort the run.
func RunEnergy(opts EnergyOptions) (*EnergyResult, error) {
	if err := CheckAmbient(opts.AmbientC); err != nil {
		return nil, err
	}
	opts.normalize()
	if opts.ModelsAt == nil {
		return nil, fmt.Errorf("guardband: RunEnergy needs a ModelsAt derivation")
	}
	if opts.NominalVddV <= 0 {
		return nil, fmt.Errorf("guardband: RunEnergy needs the nominal rail voltage")
	}
	if opts.VddMinV <= 0 {
		opts.VddMinV = 0.45
	}
	if opts.VddTolV <= 0 {
		opts.VddTolV = 0.005
	}

	res := &EnergyResult{AmbientC: opts.AmbientC, NominalVddV: opts.NominalVddV}

	nom, err := opts.ModelsAt(opts.NominalVddV)
	if err != nil {
		return nil, fmt.Errorf("guardband: nominal rail: %w", err)
	}

	// The conventional worst-case clock at the nominal rail: the frequency
	// the margin is measured against, and the default iso-frequency target.
	worst := baseline(nom.Timing, opts.Options, &res.Stats)
	res.BaselineMHz = worst.FmaxMHz
	res.TargetMHz = opts.TargetMHz
	if res.TargetMHz <= 0 {
		res.TargetMHz = worst.FmaxMHz
	}

	// probe converges one rail as a pinned engine lane: the clock is held at
	// the target, and the lane's margined final probe decides feasibility.
	// A rail that does not conduct returns a nil lane (an infeasible bound).
	probeN := 0
	probe := func(vdd, loV, hiV float64) (*lane, error) {
		probeN++
		m := nom
		if vdd != opts.NominalVddV {
			var err error
			m, err = opts.ModelsAt(vdd)
			if errors.Is(err, techmodel.ErrNonConducting) {
				if opts.OnProbe != nil {
					opts.OnProbe(EnergyProbe{
						Probe: probeN, VddV: vdd, AmbientC: opts.AmbientC,
						NonConducting: true, LoV: loV, HiV: hiV,
					})
				}
				return nil, nil
			}
			if err != nil {
				return nil, fmt.Errorf("guardband: rail %.3f V: %w", vdd, err)
			}
		}
		ln := &lane{ambientC: opts.AmbientC, pinned: true, fMHz: res.TargetMHz, vddV: vdd}
		if err := converge(m.Timing, m.Power, m.Thermal, []*lane{ln}, opts.Options); err != nil {
			return nil, err
		}
		res.Stats.Add(ln.res.Stats)
		res.Iterations += ln.res.Iterations
		if opts.OnProbe != nil {
			opts.OnProbe(EnergyProbe{
				Probe: probeN, VddV: vdd, AmbientC: opts.AmbientC,
				Feasible: feasible(ln, res.TargetMHz), FmaxMHz: ln.res.FmaxMHz, PowerUW: ln.powerUW,
				Iterations: ln.res.Iterations, Converged: ln.res.Converged,
				LoV: loV, HiV: hiV,
			})
		}
		return ln, nil
	}

	// The nominal rail anchors the comparison and the bisection's feasible
	// upper bound.
	pn, err := probe(opts.NominalVddV, opts.VddMinV, opts.NominalVddV)
	if err != nil {
		return nil, err
	}
	res.NominalPowerUW = pn.powerUW
	if res.TargetMHz > 0 {
		res.NominalEnergyPJ = pn.powerUW / res.TargetMHz
	}
	fill := func(p *lane, vdd float64) {
		res.MinVddV = vdd
		res.PowerUW = p.powerUW
		res.FmaxMHz = p.res.FmaxMHz
		res.Converged = p.res.Converged
		res.Temps = p.res.Temps
		res.RiseC = p.res.RiseC
		if res.TargetMHz > 0 {
			res.EnergyPJ = p.powerUW / res.TargetMHz
		}
		if res.NominalPowerUW > 0 {
			res.SavingsPct = (1 - p.powerUW/res.NominalPowerUW) * 100
		}
	}
	if !feasible(pn, res.TargetMHz) {
		// The target is out of reach even at full supply: report the
		// nominal operating point and let the caller decide.
		fill(pn, opts.NominalVddV)
		res.Probes = probeN
		return res, nil
	}
	res.Feasible = true

	// Bisection over [lo, hi]: hi is always the lowest known-feasible rail,
	// lo the highest known-infeasible one (feasibility is monotone in Vdd —
	// more supply means more overdrive everywhere). Probe the floor first:
	// if even it is feasible the search is done.
	lo, hi := opts.VddMinV, opts.NominalVddV
	best, bestV := pn, opts.NominalVddV
	if lo < hi {
		pf, err := probe(lo, lo, hi)
		if err != nil {
			return nil, err
		}
		if feasible(pf, res.TargetMHz) {
			hi = lo
			best, bestV = pf, lo
		} else {
			for hi-lo > opts.VddTolV {
				mid := 0.5 * (lo + hi)
				pm, err := probe(mid, lo, hi)
				if err != nil {
					return nil, err
				}
				if feasible(pm, res.TargetMHz) {
					hi = mid
					best, bestV = pm, mid
				} else {
					lo = mid
				}
			}
		}
	}
	fill(best, bestV)
	res.Probes = probeN
	return res, nil
}

// feasible reports whether a probed rail clocks the target with the δT
// margin. Like every result in the repo an unconverged probe still reports
// its last iterate (flagged via Converged) rather than poisoning the
// search; a non-conducting rail (nil lane) is never feasible.
func feasible(ln *lane, targetMHz float64) bool {
	return ln != nil && ln.res.FmaxMHz >= targetMHz
}
