package guardband

// engine.go is the one implementation of Algorithm 1's convergence loop.
// Every entry point drives it: Run at one lane, RunBatch at one lane per
// ambient, and RunEnergy at one pinned lane per voltage probe. Each round
// issues one batched STA traversal for the lanes whose clock follows
// timing, one power evaluation per lane, and one multi-RHS thermal solve; a
// lane whose map meets δT (or runs out of iterations) retires that round
// with its margined final probe while the others keep iterating. The
// batched kernels preserve each lane's serial floating-point order and take
// the serial path at one lane, so a lane's physics never depends on how
// many lanes share its rounds.

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
	// the design every round — the min-energy probe, where the STA step
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

	fMHz   float64   // this round's clock (fixed when pinned)
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

// baseline probes the conventional worst-case corner — every tile at
// T_worst — and accounts the probe to st.
func baseline(an *sta.Analyzer, opts Options, st *Stats) sta.Report {
	t0 := time.Now()
	rep := an.Analyze(sta.UniformTemps(an.PL.Grid.NumTiles(), opts.WorstCaseC))
	st.STAProbes++
	st.STANs += time.Since(t0).Nanoseconds()
	return rep
}

// converge runs Algorithm 1 over lanes that share one implementation's
// models until every lane has retired. opts must already be normalized;
// its AmbientC is ignored (each lane carries its own). Cancellation is
// checked on the round boundary, so an aborted run stops between coherent
// iterates. Shared kernel wall time is split evenly
// across the lanes that shared it.
func converge(an *sta.Analyzer, pm *power.Model, th *hotspot.Model, lanes []*lane, opts Options) error {
	nTiles := an.PL.Grid.NumTiles()
	active := make([]*lane, 0, len(lanes))
	for _, ln := range lanes {
		// Line 1-2: start from ambient everywhere.
		ln.res.Temps = sta.UniformTemps(nTiles, ln.ambientC)
		if opts.FreezeLeakage {
			ln.frozen = sta.UniformTemps(nTiles, ln.ambientC)
		}
		active = append(active, ln)
	}
	var (
		timed    []*lane
		timedMap [][]float64
		powers   [][]float64
		ambients []float64
		retiring []*lane
	)
	for round := 1; len(active) > 0; round++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return fmt.Errorf("guardband: cancelled after %d iterations: %w", round-1, err)
			}
		}

		// Line 4: full-netlist timing at each lane's current map, one
		// traversal for every lane whose clock is not pinned.
		timed, timedMap = timed[:0], timedMap[:0]
		for _, ln := range active {
			if !ln.pinned {
				timed = append(timed, ln)
				timedMap = append(timedMap, ln.res.Temps)
			}
		}
		if len(timed) > 0 {
			t0 := time.Now()
			reps := an.AnalyzeBatch(timedMap)
			ns := time.Since(t0).Nanoseconds() / int64(len(timed))
			for i, ln := range timed {
				ln.fMHz = reps[i].FmaxMHz
				ln.res.Stats.STAProbes++
				ln.res.Stats.STANs += ns
			}
		}

		// Line 5: dynamic power at the lane's clock plus leakage at its
		// temperatures.
		powers, ambients = powers[:0], ambients[:0]
		t0 := time.Now()
		for _, ln := range active {
			ln.power = pm.VectorInto(ln.fMHz, ln.leakTemps(), ln.power)
			powers = append(powers, ln.power)
			ambients = append(ambients, ln.ambientC)
		}
		powerNs := time.Since(t0).Nanoseconds() / int64(len(active))

		// Line 7: one thermal solve for every active lane.
		t0 = time.Now()
		solved, err := th.SolveBatch(powers, ambients)
		thermalNs := time.Since(t0).Nanoseconds() / int64(len(active))
		if err != nil {
			return fmt.Errorf("guardband: %w", err)
		}

		// Line 3/8: convergence on the infinity norm; converged lanes and
		// lanes out of iterations retire.
		retiring = retiring[:0]
		survivors := active[:0]
		for i, ln := range active {
			r := &ln.res
			r.Iterations = round
			r.Stats.PowerNs += powerNs
			r.Stats.ThermalSolves++
			r.Stats.ThermalNs += thermalNs

			// SeedTemps keeps the raw solver output, before any collapse.
			r.SeedTemps = solved[i]
			next := solved[i]
			if opts.UniformT {
				next = sta.UniformTemps(nTiles, hotspot.Max(next))
			}
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
			converged := maxDelta <= opts.DeltaTC
			if opts.OnIteration != nil {
				opts.OnIteration(Progress{
					Iteration: round, AmbientC: ln.ambientC, FmaxMHz: ln.fMHz,
					MaxDeltaC: maxDelta, MaxC: hotspot.Max(next), Converged: converged,
					VddV: ln.vddV,
				})
			}
			r.Converged = converged
			if converged || round >= opts.MaxIters {
				retiring = append(retiring, ln)
			} else {
				survivors = append(survivors, ln)
			}
		}
		active = survivors
		if len(retiring) > 0 {
			retire(an, pm, retiring, opts)
		}
	}
	return nil
}

// retire runs Line 9 for the lanes leaving the loop this round: one batched
// timing probe at every lane's map plus the δT margin sets the final clock.
// A pinned lane also re-evaluates its power at the final temperatures, so
// the wattage it reports matches the map it is quoted with.
func retire(an *sta.Analyzer, pm *power.Model, lanes []*lane, opts Options) {
	margined := make([][]float64, len(lanes))
	for i, ln := range lanes {
		mg := make([]float64, len(ln.res.Temps))
		for j, t := range ln.res.Temps {
			mg[j] = t + opts.DeltaTC
		}
		margined[i] = mg
	}
	t0 := time.Now()
	finals := an.AnalyzeBatch(margined)
	ns := time.Since(t0).Nanoseconds() / int64(len(lanes))
	for i, ln := range lanes {
		r := &ln.res
		r.Stats.STAProbes++
		r.Stats.STANs += ns
		r.FmaxMHz = finals[i].FmaxMHz
		r.Breakdown = finals[i].Breakdown
		r.RiseC = hotspot.Mean(r.Temps) - ln.ambientC
		r.SpreadC = hotspot.Spread(r.Temps)
		if ln.pinned {
			t0 := time.Now()
			ln.power = pm.VectorInto(ln.fMHz, ln.leakTemps(), ln.power)
			r.Stats.PowerNs += time.Since(t0).Nanoseconds()
			total := 0.0
			for _, w := range ln.power {
				total += w
			}
			ln.powerUW = total
		}
	}
}

// result completes a retired fmax lane against the worst-case baseline.
func (ln *lane) result(worst sta.Report) *Result {
	r := &ln.res
	r.BaselineMHz = worst.FmaxMHz
	if worst.FmaxMHz > 0 {
		r.GainPct = (r.FmaxMHz/worst.FmaxMHz - 1) * 100
	}
	return r
}
