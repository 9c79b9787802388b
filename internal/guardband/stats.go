package guardband

import "fmt"

// Stats accounts the kernel work one Algorithm-1 run performed: how many
// full-netlist timing probes and thermal solves the convergence loop issued,
// and the wall time each kernel consumed.
// taexp and tafpga -sweep surface it so perf regressions in the inner loop
// show up next to the scientific results they would slow down.
type Stats struct {
	// STAProbes counts full-netlist timing analyses (baseline, loop, and
	// final margined probe).
	STAProbes int
	// ThermalSolves counts steady-state thermal solves.
	ThermalSolves int
	// STANs, PowerNs, and ThermalNs are the wall-clock nanoseconds spent in
	// each kernel.
	STANs     int64
	PowerNs   int64
	ThermalNs int64
	// BatchLanes counts lanes executed by RunBatch (1 per batched lane, 0
	// for serial runs); LockstepIters counts batch lockstep rounds (carried
	// by one lane per batch so a summed batch counts each round once); and
	// RetiredEarly counts lanes that converged before the batch's final
	// round — the continuous-batching win.
	BatchLanes    int
	LockstepIters int
	RetiredEarly  int
}

// Add accumulates another run's stats (used by RunAdaptive and the
// experiment suites to aggregate across epochs and benchmarks).
func (s *Stats) Add(o Stats) {
	s.STAProbes += o.STAProbes
	s.ThermalSolves += o.ThermalSolves
	s.STANs += o.STANs
	s.PowerNs += o.PowerNs
	s.ThermalNs += o.ThermalNs
	s.BatchLanes += o.BatchLanes
	s.LockstepIters += o.LockstepIters
	s.RetiredEarly += o.RetiredEarly
}

// String renders a one-line kernel accounting.
func (s Stats) String() string {
	line := fmt.Sprintf("sta %d probes %.2fms | power %.2fms | thermal %d solves %.2fms",
		s.STAProbes, float64(s.STANs)/1e6,
		float64(s.PowerNs)/1e6,
		s.ThermalSolves, float64(s.ThermalNs)/1e6)
	if s.BatchLanes > 0 {
		line += fmt.Sprintf(" | batch %d lanes (%d lockstep rounds, %d retired early)",
			s.BatchLanes, s.LockstepIters, s.RetiredEarly)
	}
	return line
}
