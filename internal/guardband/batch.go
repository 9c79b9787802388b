package guardband

// batch.go runs Algorithm 1 across many ambient lanes in lockstep, the way
// batched inference amortizes weights across requests: the engine issues
// one batched STA traversal and one multi-RHS thermal solve per round for
// every lane still iterating, and a lane whose temperature map meets δT
// retires continuous-batching style while the survivors keep iterating —
// so a batch's wall time tracks the slowest lane instead of the sum. Lane
// l's Result is bit-identical to Run at ambients[l] on every physics field
// (Stats is accounting, not physics: kernel wall times are shared-work
// shares and the batch counters only exist here).

import (
	"tafpga/internal/hotspot"
	"tafpga/internal/power"
	"tafpga/internal/sta"
)

// RunBatch executes Algorithm 1 at every ambient in lockstep. Result l
// matches Run(an, pm, th, opts-with-AmbientC=ambients[l]) bit for bit on
// every physics field (FmaxMHz, BaselineMHz, Converged, GainPct,
// Iterations, Temps, RiseC, SpreadC, Breakdown, SeedTemps). opts.AmbientC
// is ignored — the lane's ambient comes from ambients[l]. An empty ambient
// list returns (nil, nil); an out-of-range ambient fails the whole batch.
func RunBatch(an *sta.Analyzer, pm *power.Model, th *hotspot.Model, ambients []float64, opts Options) ([]*Result, error) {
	opts.normalize()
	if len(ambients) == 0 {
		return nil, nil
	}
	lanes := make([]*lane, len(ambients))
	for l, amb := range ambients {
		if err := CheckAmbient(amb); err != nil {
			return nil, err
		}
		lanes[l] = &lane{ambientC: amb}
	}
	// The conventional worst-case baseline depends only on the
	// implementation and T_worst, so one probe serves the whole batch. Its
	// accounting goes to lane 0: summing the batch's Stats then counts the
	// probe once, like the batch itself did.
	worst := baseline(an, opts, &lanes[0].res.Stats)
	if err := converge(an, pm, th, lanes, opts); err != nil {
		return nil, err
	}

	// Batch counters: the lockstep round count (the slowest lane's
	// iterations) rides on lane 0, so a summed batch counts its rounds
	// once, and a lane retired early when it stopped iterating before the
	// batch's final round.
	rounds := 0
	for _, ln := range lanes {
		rounds = max(rounds, ln.res.Iterations)
	}
	results := make([]*Result, len(lanes))
	for l, ln := range lanes {
		r := ln.result(worst)
		r.Stats.BatchLanes = 1
		if r.Iterations < rounds {
			r.Stats.RetiredEarly = 1
		}
		results[l] = r
	}
	results[0].Stats.LockstepIters = rounds
	return results, nil
}
