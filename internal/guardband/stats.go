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
	// Deprecated: always 0; Algorithm 1 runs one ambient at a time.
	LockstepIters int
	// Deprecated: always 0; Algorithm 1 runs one ambient at a time.
	RetiredEarly int
}

// Add accumulates another run's stats (used by the experiment suites to
// aggregate across benchmarks).
func (s *Stats) Add(o Stats) {
	s.STAProbes += o.STAProbes
	s.ThermalSolves += o.ThermalSolves
	s.STANs += o.STANs
	s.PowerNs += o.PowerNs
	s.ThermalNs += o.ThermalNs
}

// String renders a one-line kernel accounting.
func (s Stats) String() string {
	return fmt.Sprintf("sta %d probes %.2fms | power %.2fms | thermal %d solves %.2fms",
		s.STAProbes, float64(s.STANs)/1e6,
		float64(s.PowerNs)/1e6,
		s.ThermalSolves, float64(s.ThermalNs)/1e6)
}
