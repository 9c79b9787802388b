package sta

import (
	"math"
	"math/rand"
	"testing"

	"tafpga/internal/netlist"
)

// testTempMaps builds a set of temperature maps that move the critical path
// around: uniform corners, a smooth gradient, and pseudo-random hotspots.
func testTempMaps(an *Analyzer) [][]float64 {
	n := an.PL.Grid.NumTiles()
	maps := [][]float64{
		UniformTemps(n, 0),
		UniformTemps(n, 25),
		UniformTemps(n, 85),
		UniformTemps(n, 100),
	}
	grad := make([]float64, n)
	for i := range grad {
		grad[i] = 25 + 60*float64(i)/float64(n)
	}
	maps = append(maps, grad)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3; trial++ {
		hot := make([]float64, n)
		for i := range hot {
			hot[i] = 25 + rng.Float64()*75
		}
		maps = append(maps, hot)
	}
	return maps
}

// TestAnalyzeBitIdenticalToReference: the compiled probe performs the exact
// floating-point arithmetic of the seed implementation, so every field of
// the report — period, endpoint, sequential share, and each breakdown
// bucket — must match bit for bit, not merely within tolerance.
func TestAnalyzeBitIdenticalToReference(t *testing.T) {
	an := analyzer(t)
	for mi, temps := range testTempMaps(an) {
		got := an.Analyze(temps)
		want := an.AnalyzeReference(temps)
		if got.PeriodPs != want.PeriodPs {
			t.Fatalf("map %d: period %v != reference %v", mi, got.PeriodPs, want.PeriodPs)
		}
		if got.FmaxMHz != want.FmaxMHz {
			t.Fatalf("map %d: fmax %v != reference %v", mi, got.FmaxMHz, want.FmaxMHz)
		}
		if got.CriticalEnd != want.CriticalEnd {
			t.Fatalf("map %d: endpoint %d != reference %d", mi, got.CriticalEnd, want.CriticalEnd)
		}
		if got.Sequential != want.Sequential {
			t.Fatalf("map %d: sequential %v != reference %v", mi, got.Sequential, want.Sequential)
		}
		if len(got.Breakdown) != len(want.Breakdown) {
			t.Fatalf("map %d: breakdown keys %v != reference %v", mi, got.Breakdown, want.Breakdown)
		}
		for k, v := range want.Breakdown {
			if gv, ok := got.Breakdown[k]; !ok || gv != v {
				t.Fatalf("map %d: breakdown[%v] = %v, reference %v", mi, k, got.Breakdown[k], v)
			}
		}
	}
}

// TestArrivalsBitIdenticalToReference compares every block's arrival and
// critical fan-in after the forward pass, not only the critical path's. On
// the raygentop fixture every critical path launches from an input pad, so
// the report alone would pass an error in an FF, BRAM or DSP launch.
func TestArrivalsBitIdenticalToReference(t *testing.T) {
	an := analyzer(t)
	launches := map[netlist.BlockType]int{}
	for _, id := range an.comp.srcID {
		launches[an.NL.Blocks[id].Type]++
	}
	for _, typ := range []netlist.BlockType{netlist.FF, netlist.BRAM, netlist.DSP} {
		if launches[typ] == 0 {
			t.Fatalf("fixture has no %s launch (launches %v)", typ, launches)
		}
	}
	for mi, temps := range testTempMaps(an) {
		sc := an.getScratch()
		an.fillTermVals(temps, sc.termVal)
		an.seedArrivals(temps, sc.arrival)
		an.propagate(temps, sc.arrival, sc.termVal, sc.worstIn, sc.worstEdge)
		want, wantIn := an.arrivalsReference(temps)
		for id := range want {
			if sc.arrival[id] != want[id] || int(sc.worstIn[id]) != wantIn[id] {
				t.Fatalf("map %d: block %d (%s): arrival %v, fan-in %d; reference %v, %d",
					mi, id, an.NL.Blocks[id].Type, sc.arrival[id], sc.worstIn[id], want[id], wantIn[id])
			}
		}
		an.scratch.Put(sc)
	}
}

// TestAnalyzeToleranceBackstop guards the golden comparison itself: should a
// future change legitimately reorder a summation, this documents the 1e-9
// ceiling the ISSUE acceptance criteria allow.
func TestAnalyzeToleranceBackstop(t *testing.T) {
	an := analyzer(t)
	for mi, temps := range testTempMaps(an) {
		got := an.Analyze(temps)
		want := an.AnalyzeReference(temps)
		if d := math.Abs(got.PeriodPs - want.PeriodPs); d > 1e-9 {
			t.Fatalf("map %d: period differs from reference by %g ps", mi, d)
		}
	}
}

// TestAnalyzeConcurrentProbesAgree: the scratch pool must keep concurrent
// probes independent (the guardband sweep analyzes in parallel).
func TestAnalyzeConcurrentProbesAgree(t *testing.T) {
	an := analyzer(t)
	maps := testTempMaps(an)
	want := make([]Report, len(maps))
	for i, temps := range maps {
		want[i] = an.Analyze(temps)
	}
	const rounds = 8
	errc := make(chan error, rounds*len(maps))
	done := make(chan struct{})
	for r := 0; r < rounds; r++ {
		go func() {
			for i, temps := range maps {
				rep := an.Analyze(temps)
				if rep.PeriodPs != want[i].PeriodPs || rep.CriticalEnd != want[i].CriticalEnd {
					errc <- errMismatch(i)
					done <- struct{}{}
					return
				}
			}
			done <- struct{}{}
		}()
	}
	for r := 0; r < rounds; r++ {
		<-done
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

type errMismatch int

func (e errMismatch) Error() string { return "concurrent probe diverged on map " + string(rune('0'+e)) }

// TestAnalyzeAllocs: the compiled probe should allocate only the report it
// returns (map header + a handful of buckets), far below the seed's
// per-probe slices and hop walks.
func TestAnalyzeAllocs(t *testing.T) {
	an := analyzer(t)
	temps := UniformTemps(an.PL.Grid.NumTiles(), 55)
	an.Analyze(temps) // prime the scratch pool
	avg := testing.AllocsPerRun(20, func() { an.Analyze(temps) })
	if avg > 16 {
		t.Fatalf("Analyze allocates %.1f objects per probe, want <= 16", avg)
	}
}

// TestSlacksMatchAnalyze: the slack pass shares the compiled forward
// machinery; its arrival at the critical endpoint must be consistent with
// the probe's period.
func TestSlacksMatchAnalyze(t *testing.T) {
	an := analyzer(t)
	temps := UniformTemps(an.PL.Grid.NumTiles(), 60)
	rep := an.Analyze(temps)
	sl := an.Slacks(temps)
	if sl.PeriodPs != rep.PeriodPs {
		t.Fatalf("slack period %v != probe period %v", sl.PeriodPs, rep.PeriodPs)
	}
	paths := an.TopPaths(temps, 1)
	if len(paths) == 0 {
		t.Fatal("no top paths")
	}
	if d := math.Abs(paths[0].ArrivalPs - rep.PeriodPs); d > 1e-9 {
		t.Fatalf("worst TopPaths arrival %v != period %v", paths[0].ArrivalPs, rep.PeriodPs)
	}
}
