package guardband

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunStatsAccounting: the stats must reflect the loop structure — one
// probe per iteration plus the baseline and final margined probes, and one
// thermal solve per iteration.
func TestRunStatsAccounting(t *testing.T) {
	t.Parallel()
	f := setup(t)
	res, err := Run(f.an, f.pm, f.th, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.STAProbes != res.Iterations+2 {
		t.Fatalf("%d STA probes for %d iterations, want iterations+2", st.STAProbes, res.Iterations)
	}
	if st.ThermalSolves != res.Iterations {
		t.Fatalf("%d thermal solves for %d iterations", st.ThermalSolves, res.Iterations)
	}
	if st.STANs <= 0 || st.ThermalNs <= 0 {
		t.Fatalf("kernel timings not recorded: %+v", st)
	}
	want := fmt.Sprintf("thermal %d solves ", st.ThermalSolves)
	if s := st.String(); !strings.Contains(s, want) || strings.Contains(s, "sweeps") {
		t.Fatalf("stats rendering %q, want %q and no solver-path breakdown", s, want)
	}
}
