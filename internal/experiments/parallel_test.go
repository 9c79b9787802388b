package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tafpga/internal/guardband"
)

// raceBenchmarks are the two smallest suite designs — enough to exercise
// the shared caches without making the race detector run expensive.
var raceBenchmarks = []string{"stereovision3", "mkPktMerge"}

func raceContext(workers int) *Context {
	c := NewContext(1.0 / 64)
	c.ChannelTracks = 104
	c.PlaceEffort = 0.1
	c.Benchmarks = raceBenchmarks
	c.Workers = workers
	return c
}

// TestConcurrentSharedContext drives Fig. 6, Fig. 7, and Fig. 8 from three
// goroutines sharing one Context: the implementation cache must singleflight
// each benchmark and the device library must singleflight each corner (run
// under -race, this is the regression test for the unsynchronized impls
// map the parallel engine replaced).
func TestConcurrentSharedContext(t *testing.T) {
	c := raceContext(0)
	var (
		wg         sync.WaitGroup
		f6, f7, f8 []BenchResult
		e6, e7, e8 error
	)
	wg.Add(3)
	go func() { defer wg.Done(); f6, e6 = c.Fig6() }()
	go func() { defer wg.Done(); f7, e7 = c.Fig7() }()
	go func() { defer wg.Done(); f8, e8 = c.Fig8() }()
	wg.Wait()
	for _, err := range []error{e6, e7, e8} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, rs := range [][]BenchResult{f6, f7, f8} {
		if len(rs) != len(raceBenchmarks) {
			t.Fatalf("expected %d results, got %d", len(raceBenchmarks), len(rs))
		}
	}
	// One shared implementation per benchmark across all three figures.
	for _, name := range raceBenchmarks {
		a, err := c.Implementation(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Implementation(name)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s: implementation not cached", name)
		}
	}
}

// TestParallelMatchesSerial is the engine's determinism guarantee: any
// worker count must produce bit-identical suite output.
func TestParallelMatchesSerial(t *testing.T) {
	serial := raceContext(1)
	s6, err := serial.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	par := raceContext(4)
	par.Lib = serial.Lib // share sized devices, redo the CAD flow
	p6, err := par.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatBench("x", p6), FormatBench("x", s6); got != want {
		t.Fatalf("parallel output diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestPoolErrorMatchesSerial: the pool must report the error a serial loop
// would have stopped on — the earliest failing benchmark — and singleflight
// must cache failures so a failing benchmark fails once.
func TestPoolErrorMatchesSerial(t *testing.T) {
	c := raceContext(4)
	c.Benchmarks = []string{"stereovision3", "nonesuch", "mkPktMerge", "alsonot"}
	_, err := c.Fig6()
	if err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("expected the earliest failing benchmark in the error, got %v", err)
	}
}

// TestPoolPartialRule: after a failing cell the fan-out returns that
// cell's error and every cell before it, at any worker count — what a
// serial loop returns — even when a later cell fails too.
func TestPoolPartialRule(t *testing.T) {
	labels := make([]string, 10)
	for w := 1; w <= 4; w++ {
		c := &Context{Workers: w}
		rs, err := fanOut(c, labels, func(i int) (int, error) {
			time.Sleep(time.Duration(10-i) * time.Millisecond)
			if i == 4 || i == 6 {
				return 0, fmt.Errorf("cell %d", i)
			}
			return i * i, nil
		})
		if err == nil || err.Error() != "cell 4" {
			t.Fatalf("workers %d: err = %v, want cell 4's", w, err)
		}
		if want := []int{0, 1, 4, 9}; fmt.Sprint(rs) != fmt.Sprint(want) {
			t.Fatalf("workers %d: results %v, want %v", w, rs, want)
		}
	}
}

// TestPartialSweepOnCancel: a sweep cancelled during its second ambient
// returns the first ambient's row, the same row an uncancelled sweep
// reports, with the context error.
func TestPartialSweepOnCancel(t *testing.T) {
	c := raceContext(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Ctx = ctx
	c.OnProgress = func(_ string, p guardband.Progress) {
		if p.AmbientC == 45 {
			cancel()
		}
	}
	rs, err := c.Fig8Sweep("sha", []float64{25, 45, 70})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rs) != 1 || rs[0].Name != "sha@25" {
		t.Fatalf("got %d rows (%v), want the 25°C row", len(rs), rs)
	}
	clean := raceContext(1)
	clean.Lib = c.Lib
	want, err := clean.Fig8Sweep("sha", []float64{25})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatBench("x", rs), FormatBench("x", want); got != want {
		t.Fatalf("partial row diverged from an uncancelled sweep:\n%s---\n%s", got, want)
	}
}

// TestPartialSuiteOnCancel: a suite cancelled when its first benchmark
// finishes returns a prefix of the serial results in suite order with the
// context error. The suite lists each design twice so cells are left
// unclaimed at any interleaving.
func TestPartialSuiteOnCancel(t *testing.T) {
	serial, err := raceContext(1).Fig6()
	if err != nil {
		t.Fatal(err)
	}
	c := raceContext(2)
	c.Benchmarks = append(append([]string(nil), raceBenchmarks...), raceBenchmarks...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Ctx = ctx
	c.OnBenchDone = func(string, time.Duration) { cancel() }
	rs, err := c.Fig6()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rs) > 2 {
		t.Fatalf("%d rows finished, but only two cells can start before the cancel", len(rs))
	}
	for i, r := range rs {
		want := serial[i%len(serial)]
		if got, want := FormatBench("x", []BenchResult{r}), FormatBench("x", []BenchResult{want}); got != want {
			t.Fatalf("row %d is not the serial row:\n%s---\n%s", i, got, want)
		}
	}
}

func TestFormatSeriesGuards(t *testing.T) {
	t.Parallel()
	if s := FormatSeries("title", nil, "%.1f"); !strings.Contains(s, "no series") {
		t.Fatalf("empty input must render a placeholder, got %q", s)
	}
	ragged := []Series{
		{Label: "a", X: []float64{0, 10}, Y: []float64{1, 2}},
		{Label: "b", X: []float64{0, 10}, Y: []float64{5}}, // one point short
	}
	s := FormatSeries("title", ragged, "%.1f")
	if !strings.Contains(s, "-") {
		t.Fatalf("ragged series must render a dash for missing points:\n%s", s)
	}
	empty := []Series{{Label: "a", X: nil, Y: nil}}
	if s := FormatSeries("title", empty, "%.1f"); !strings.Contains(s, "a") {
		t.Fatalf("series with no points must still render the header, got %q", s)
	}
}

func TestWriteSeriesCSVRaggedErrors(t *testing.T) {
	t.Parallel()
	ragged := []Series{
		{Label: "a", X: []float64{0, 10}, Y: []float64{1, 2}},
		{Label: "b", X: []float64{0, 10}, Y: []float64{5}},
	}
	var buf strings.Builder
	if err := WriteSeriesCSV(&buf, ragged); err == nil {
		t.Fatal("expected error for ragged series")
	}
	ok := []Series{{Label: "a", X: []float64{0, 10}, Y: []float64{1, 2}}}
	buf.Reset()
	if err := WriteSeriesCSV(&buf, ok); err != nil {
		t.Fatal(err)
	}
}

func TestUnconvergedReporting(t *testing.T) {
	t.Parallel()
	rs := []BenchResult{
		{Name: "good", GainPct: 10, Converged: true},
		{Name: "bad", GainPct: 5, Converged: false},
	}
	if un := Unconverged(rs); len(un) != 1 || un[0] != "bad" {
		t.Fatalf("Unconverged = %v, want [bad]", un)
	}
	s := FormatBench("t", rs)
	if !strings.Contains(s, "[UNCONVERGED]") || !strings.Contains(s, "did not converge") {
		t.Fatalf("unconverged results must be flagged:\n%s", s)
	}
	if strings.Contains(FormatBench("t", rs[:1]), "UNCONVERGED") {
		t.Fatal("converged results must not be flagged")
	}
}
