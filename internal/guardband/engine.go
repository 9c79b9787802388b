package guardband

// engine.go is the one implementation of Algorithm 1's convergence loop.
// Every entry point drives it one ambient at a time: Run and RunBatch
// converge one lane per ambient, and RunEnergy one pinned lane per voltage
// probe. Each iteration times the design at the lane's current map, prices
// its power, and solves the thermal network; the lane stops when its map
// meets δT (or runs out of iterations) and takes its margined final probe.

import (
	"fmt"
	"time"

	"tafpga/internal/hotspot"
	"tafpga/internal/power"
	"tafpga/internal/sta"
)

// lane is one Algorithm-1 run inside the engine.
type lane struct {
	ambientC float64
	// pinned holds the clock at the driver-set fMHz instead of re-timing
	// the design every iteration — the min-energy probe, where the STA step
	// only fed the frequency into the power model. vddV is the probe's
	// rail, reported on its Progress events.
	pinned bool
	vddV   float64

	// res accumulates the lane's outcome: Iterations, Converged, Temps,
	// SeedTemps, Stats, and from the final probe FmaxMHz, Breakdown, RiseC
	// and SpreadC. The driver fills in the baseline fields.
	res Result
	// powerUW is a pinned lane's total power at its final temperatures.
	powerUW float64

	fMHz   float64   // this iteration's clock (fixed when pinned)
	frozen []float64 // the ambient map leakage is priced at under FreezeLeakage
	power  []float64 // reused power vector
}

// leakTemps is the map the lane's leakage is evaluated at.
func (ln *lane) leakTemps() []float64 {
	if ln.frozen != nil {
		return ln.frozen
	}
	return ln.res.Temps
}

// analyze runs one full-netlist timing probe and accounts it to st.
func analyze(an *sta.Analyzer, temps []float64, st *Stats) sta.Report {
	t0 := time.Now()
	rep := an.Analyze(temps)
	st.STAProbes++
	st.STANs += time.Since(t0).Nanoseconds()
	return rep
}

// baseline probes the conventional worst-case corner — every tile at
// T_worst — and accounts the probe to st.
func baseline(an *sta.Analyzer, opts Options, st *Stats) sta.Report {
	return analyze(an, sta.UniformTemps(an.PL.Grid.NumTiles(), opts.WorstCaseC), st)
}

// converge runs Algorithm 1 for one lane on one implementation's models.
// opts must already be normalized; its AmbientC is ignored (the lane
// carries its own). Cancellation is checked at the top of every iteration,
// so an aborted run stops between coherent iterates.
func converge(an *sta.Analyzer, pm *power.Model, th *hotspot.Model, ln *lane, opts Options) error {
	nTiles := an.PL.Grid.NumTiles()
	r := &ln.res
	// Line 1-2: start from ambient everywhere.
	r.Temps = sta.UniformTemps(nTiles, ln.ambientC)
	if opts.FreezeLeakage {
		ln.frozen = sta.UniformTemps(nTiles, ln.ambientC)
	}
	for iter := 1; ; iter++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return fmt.Errorf("guardband: cancelled after %d iterations: %w", iter-1, err)
			}
		}

		// Line 4: full-netlist timing at the current map, unless the clock
		// is pinned.
		if !ln.pinned {
			ln.fMHz = analyze(an, r.Temps, &r.Stats).FmaxMHz
		}

		// Line 5: dynamic power at the clock plus leakage at the lane's
		// temperatures.
		t0 := time.Now()
		ln.power = pm.VectorInto(ln.fMHz, ln.leakTemps(), ln.power)
		r.Stats.PowerNs += time.Since(t0).Nanoseconds()

		// Line 7: steady-state thermal solve.
		t0 = time.Now()
		solved, err := th.Solve(ln.power, ln.ambientC)
		r.Stats.ThermalNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return fmt.Errorf("guardband: %w", err)
		}
		r.Stats.ThermalSolves++
		r.Iterations = iter

		// SeedTemps keeps the raw solver output, before any collapse.
		r.SeedTemps = solved
		next := solved
		if opts.UniformT {
			next = sta.UniformTemps(nTiles, hotspot.Max(next))
		}
		// Line 3/8: convergence on the infinity norm.
		maxDelta := 0.0
		for j := range next {
			d := next[j] - r.Temps[j]
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
		}
		r.Temps = next
		r.Converged = maxDelta <= opts.DeltaTC
		if opts.OnIteration != nil {
			opts.OnIteration(Progress{
				Iteration: iter, AmbientC: ln.ambientC, FmaxMHz: ln.fMHz,
				MaxDeltaC: maxDelta, MaxC: hotspot.Max(next), Converged: r.Converged,
				VddV: ln.vddV,
			})
		}
		if r.Converged || iter >= opts.MaxIters {
			break
		}
	}

	// Line 9: one timing probe at the final map plus the δT margin sets
	// the final clock.
	margined := make([]float64, nTiles)
	for j, t := range r.Temps {
		margined[j] = t + opts.DeltaTC
	}
	final := analyze(an, margined, &r.Stats)
	r.FmaxMHz = final.FmaxMHz
	r.Breakdown = final.Breakdown
	r.RiseC = hotspot.Mean(r.Temps) - ln.ambientC
	r.SpreadC = hotspot.Spread(r.Temps)
	// A pinned lane re-evaluates its power at the final temperatures, so
	// the wattage it reports matches the map it is quoted with.
	if ln.pinned {
		t0 := time.Now()
		ln.power = pm.VectorInto(ln.fMHz, ln.leakTemps(), ln.power)
		r.Stats.PowerNs += time.Since(t0).Nanoseconds()
		for _, w := range ln.power {
			ln.powerUW += w
		}
	}
	return nil
}

// result completes a finished fmax lane against the worst-case baseline.
func (ln *lane) result(worst sta.Report) *Result {
	r := &ln.res
	r.BaselineMHz = worst.FmaxMHz
	if worst.FmaxMHz > 0 {
		r.GainPct = (r.FmaxMHz/worst.FmaxMHz - 1) * 100
	}
	return r
}
