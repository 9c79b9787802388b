package guardband_test

import (
	"math"
	"testing"

	"tafpga/internal/guardband"
	"tafpga/internal/oracle"
)

// TestOptimizedRunMatchesReferenceRun: the engine on the optimized
// kernels (compiled STA, factorized thermal solver) must land on the same
// operating point as Algorithm 1 over the seed kernels. The thermal paths
// differ by at most the Gauss-Seidel tolerance (1e-5 °C), far inside the
// δT = 0.5 °C margin, so the resulting frequencies agree to a few parts
// per million.
func TestOptimizedRunMatchesReferenceRun(t *testing.T) {
	t.Parallel()
	c := goldenContext()
	for _, name := range goldenDesigns {
		im, err := c.Implementation(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, amb := range []float64{25, 70} {
			opts := guardband.DefaultOptions(amb)
			opt, err := guardband.Run(im.Timing, im.Power, im.Thermal, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := oracle.Run(im.Timing, im.Power, im.Thermal, opts)
			if err != nil {
				t.Fatal(err)
			}
			if opt.BaselineMHz != ref.BaselineMHz {
				t.Fatalf("%s@%g: baseline %v != reference %v (worst-case STA must be bit-identical)",
					name, amb, opt.BaselineMHz, ref.BaselineMHz)
			}
			if rel := math.Abs(opt.FmaxMHz-ref.FmaxMHz) / ref.FmaxMHz; rel > 1e-5 {
				t.Fatalf("%s@%g: fmax %v vs reference %v (rel %g)", name, amb, opt.FmaxMHz, ref.FmaxMHz, rel)
			}
			if opt.Iterations != ref.Iterations || opt.Converged != ref.Converged {
				t.Fatalf("%s@%g: convergence trajectory diverged: %d/%v vs %d/%v",
					name, amb, opt.Iterations, opt.Converged, ref.Iterations, ref.Converged)
			}
			if opt.Stats.STAProbes != ref.Stats.STAProbes || opt.Stats.ThermalSolves != ref.Stats.ThermalSolves {
				t.Fatalf("%s@%g: work accounting diverged: %+v vs %+v", name, amb, opt.Stats, ref.Stats)
			}
		}
	}
}
