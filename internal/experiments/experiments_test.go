package experiments

import (
	"strings"
	"sync"
	"testing"

	"tafpga/internal/coffe"
	"tafpga/internal/guardband"
)

var (
	ctxOnce sync.Once
	ctx     *Context
)

// testContext shares one small-scale context (with its device and
// implementation caches) across the package's tests.
func testContext(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		ctx = NewContext(1.0 / 64)
		ctx.ChannelTracks = 104
		ctx.PlaceEffort = 0.3
		ctx.Benchmarks = []string{"sha", "raygentop", "mkPktMerge"}
	})
	return ctx
}

func TestFig1Shape(t *testing.T) {
	c := testContext(t)
	ss, err := c.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 3 {
		t.Fatalf("Fig. 1 has 3 series, got %d", len(ss))
	}
	for _, s := range ss {
		if s.Y[0] != 0 {
			t.Fatalf("%s: first point must be 0%% at 0°C", s.Label)
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("%s: delay increase must be monotone", s.Label)
			}
		}
	}
	final := map[string]float64{}
	for _, s := range ss {
		final[s.Label] = s.Y[len(s.Y)-1]
	}
	// Paper bands: CP reaches ~47 %, DSP up to ~84 %, and the hard blocks
	// are more sensitive than the soft CP.
	if final["CP"] < 30 || final["CP"] > 65 {
		t.Errorf("CP increase at 100°C = %.1f%%, paper ~47%%", final["CP"])
	}
	if final["DSP"] < final["CP"] {
		t.Errorf("DSP must be more temperature-sensitive than the CP")
	}
	if final["BRAM"] < final["CP"] {
		t.Errorf("BRAM must be more temperature-sensitive than the CP")
	}
}

func TestFig2DiagonalOptimality(t *testing.T) {
	c := testContext(t)
	rows, err := c.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("3 components × 3 temperatures expected, got %d rows", len(rows))
	}
	for _, r := range rows {
		// The device sized for the operating temperature must be within a
		// hair of the chunk minimum (normalized 1.0).
		if r.Normalized[r.OperateC] > 1.01 {
			t.Errorf("%s at %.0f°C: matching corner normalized %.3f, want ≈1",
				r.Component, r.OperateC, r.Normalized[r.OperateC])
		}
		for _, v := range r.Normalized {
			if v < 0.999 {
				t.Errorf("%s at %.0f°C: normalization below 1: %g", r.Component, r.OperateC, v)
			}
		}
	}
	if FormatFig2(rows) == "" {
		t.Fatal("formatting broken")
	}
}

func TestFig3CrossoverShape(t *testing.T) {
	c := testContext(t)
	ss, err := c.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Series{}
	for _, s := range ss {
		byLabel[s.Label] = s
	}
	d0, d100 := byLabel["D0"], byLabel["D100"]
	if d0.Y[0] >= d100.Y[0] {
		t.Error("D0 must win at 0°C")
	}
	last := len(d0.Y) - 1
	if d100.Y[last] >= d0.Y[last] {
		t.Error("D100 must win at 100°C")
	}
	for _, s := range ss {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("%s: CP delay must be monotone in temperature", s.Label)
			}
		}
	}
}

func TestTable1ContainsTableIValues(t *testing.T) {
	c := testContext(t)
	s := c.Table1()
	for _, want := range []string{"K                    6", "N                    10", "Channel tracks       320", "SBmux                12", "CBmux                64", "localmux             25", "1024x32 bit"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I output missing %q:\n%s", want, s)
		}
	}
}

func TestTable2AllResources(t *testing.T) {
	c := testContext(t)
	chars, err := c.Table2()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[coffe.ResourceKind]bool{}
	for _, ch := range chars {
		kinds[ch.Kind] = true
	}
	for _, k := range coffe.Kinds() {
		if !kinds[k] {
			t.Errorf("Table II missing %s", k)
		}
	}
}

func TestFig6AndFig7Gains(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow experiment")
	}
	c := testContext(t)
	r25, err := c.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	r70, err := c.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r25) != len(c.Benchmarks) {
		t.Fatalf("expected %d results", len(c.Benchmarks))
	}
	a25, a70 := Average(r25), Average(r70)
	if a25 < 20 || a25 > 60 {
		t.Errorf("Fig. 6 average %.1f%%, paper 36.5%%", a25)
	}
	if a70 < 5 || a70 > 30 {
		t.Errorf("Fig. 7 average %.1f%%, paper 14%%", a70)
	}
	if a70 >= a25 {
		t.Error("hotter ambient must shrink the headroom")
	}
	for _, r := range r25 {
		if r.Iterations >= 10 {
			t.Errorf("%s: %d iterations, paper promises <10", r.Name, r.Iterations)
		}
	}
	if FormatBench("t", r25) == "" {
		t.Fatal("formatting broken")
	}
}

func TestFig8HotGradeWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow experiment")
	}
	c := testContext(t)
	rs, err := c.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	avg := Average(rs)
	if avg <= 0 {
		t.Errorf("Fig. 8 average %.2f%%: the 70°C grade must win at 70°C", avg)
	}
	if avg > 15 {
		t.Errorf("Fig. 8 average %.2f%% implausibly high", avg)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow experiment")
	}
	c := testContext(t)

	dt, err := c.AblationDeltaT(25)
	if err != nil {
		t.Fatal(err)
	}
	if dt[0].GainPct <= dt[len(dt)-1].GainPct {
		t.Error("tighter δT must keep more of the gain")
	}

	ut, err := c.AblationUniformT(25)
	if err != nil {
		t.Fatal(err)
	}
	if ut[1].GainPct > ut[0].GainPct+1e-9 {
		t.Error("uniform-T ablation cannot beat per-tile analysis")
	}

	lf, err := c.AblationNoLeakFeedback(70)
	if err != nil {
		t.Fatal(err)
	}
	if len(lf) != 2 || lf[0].Detail == "" {
		t.Error("leakage ablation malformed")
	}
	if FormatAblation("t", lf) == "" {
		t.Error("formatting broken")
	}
}

// TestAblationPlacementMatchesImplementation pins the placement ablation's
// build recipe: its "place effort 1.0" row, under a context whose own effort
// is 1.0, is the mean gain of the same benchmarks built through
// Implementation, bit for bit.
func TestAblationPlacementMatchesImplementation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow experiment")
	}
	c := NewContext(1.0 / 64)
	c.ChannelTracks = 104
	c.PlaceEffort = 1.0
	rows, err := c.AblationPlacement(25)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := c.ablate(25, []ablationCase{{label: "Implementation"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := shared[0].GainPct
	row := rows[len(rows)-1]
	if row.Label != "place effort 1.0" {
		t.Fatalf("last row is %q, want the effort-1.0 row", row.Label)
	}
	if row.GainPct != want {
		t.Fatalf("place effort 1.0 row gains %v%%, Implementation builds gain %v%%", row.GainPct, want)
	}
}

// TestGuardbandSweepInvariance: the ambient sweep must be bit-identical to
// independent Guardband runs at each ambient.
func TestGuardbandSweepInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow experiment")
	}
	c := testContext(t)
	ambients := []float64{25, 45, 70}
	swept, err := c.GuardbandSweep("sha", ambients)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != len(ambients) {
		t.Fatalf("expected %d results, got %d", len(ambients), len(swept))
	}
	im, err := c.Implementation("sha")
	if err != nil {
		t.Fatal(err)
	}
	for i, amb := range ambients {
		cold, err := im.Guardband(guardband.DefaultOptions(amb))
		if err != nil {
			t.Fatal(err)
		}
		r := swept[i]
		if r.FmaxMHz != cold.FmaxMHz || r.BaselineMHz != cold.BaselineMHz ||
			r.Iterations != cold.Iterations || r.RiseC != cold.RiseC ||
			r.SpreadC != cold.SpreadC || r.Converged != cold.Converged {
			t.Fatalf("sweep at %g°C diverged from cold run:\nswept %+v\ncold  fmax=%g base=%g iters=%d rise=%g spread=%g conv=%t",
				amb, r, cold.FmaxMHz, cold.BaselineMHz, cold.Iterations, cold.RiseC, cold.SpreadC, cold.Converged)
		}
	}
	// Hotter ambients must clock lower — the sweep is ordered.
	if !(swept[0].FmaxMHz > swept[1].FmaxMHz && swept[1].FmaxMHz > swept[2].FmaxMHz) {
		t.Fatalf("sweep clocks not ordered by ambient: %+v", swept)
	}
}

func TestImplementationCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow experiment")
	}
	c := testContext(t)
	a, err := c.Implementation("sha")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Implementation("sha")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("implementations must be cached")
	}
}

func TestUnknownBenchmarkFails(t *testing.T) {
	c := testContext(t)
	if _, err := c.Implementation("nonesuch"); err == nil {
		t.Fatal("expected error")
	}
}

func TestCSVExports(t *testing.T) {
	c := testContext(t)
	ss, err := c.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteSeriesCSV(&buf, ss); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(ss[0].X)+1 {
		t.Fatalf("series CSV has %d lines, want %d", len(lines), len(ss[0].X)+1)
	}
	if !strings.HasPrefix(lines[0], "T_C,CP,BRAM,DSP") {
		t.Fatalf("bad header %q", lines[0])
	}

	rows, err := c.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteFig2CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BRAM") {
		t.Fatal("fig2 CSV missing components")
	}

	chars, err := c.Table2()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteTable2CSV(&buf, chars); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SBmux") {
		t.Fatal("table2 CSV missing resources")
	}

	buf.Reset()
	bench := []BenchResult{{Name: "x", GainPct: 10, FmaxMHz: 100, BaselineMHz: 90, Converged: true}}
	if err := WriteBenchCSV(&buf, bench); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "average,10.00") {
		t.Fatalf("bench CSV missing average row:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "true") {
		t.Fatalf("bench CSV missing converged column:\n%s", buf.String())
	}

	if err := WriteSeriesCSV(&buf, nil); err == nil {
		t.Fatal("expected error for empty series")
	}
}

func TestScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow experiment")
	}
	c := testContext(t)
	claims, err := c.Scorecard()
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 10 {
		t.Fatalf("scorecard too thin: %d claims", len(claims))
	}
	failed := 0
	for _, cl := range claims {
		if !cl.Pass {
			failed++
			t.Logf("claim %s out of band: measured %.3f not in [%g, %g]", cl.ID, cl.Measured, cl.Lo, cl.Hi)
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d reproduction claims out of band", failed, len(claims))
	}
	if FormatScorecard(claims) == "" {
		t.Fatal("formatting broken")
	}
}

// TestGuardbandSweepBatchInvariance: a sweep is one Guardband call per
// ambient, so its rows must equal the lanes of guardband.RunBatch over the
// same axis, field for field.
func TestGuardbandSweepBatchInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow experiment")
	}
	c := testContext(t)
	ambients := []float64{0, 25, 45, 70, 95}
	sweep, err := c.GuardbandSweep("sha", ambients)
	if err != nil {
		t.Fatal(err)
	}
	im, err := c.Implementation("sha")
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := guardband.RunBatch(im.Timing, im.Power, im.Thermal, ambients, c.gbOptions("sha", 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != len(lanes) {
		t.Fatalf("%d sweep rows, want %d", len(sweep), len(lanes))
	}
	for i, r := range sweep {
		l := lanes[i]
		if r.FmaxMHz != l.FmaxMHz || r.BaselineMHz != l.BaselineMHz ||
			r.GainPct != l.GainPct || r.Iterations != l.Iterations ||
			r.RiseC != l.RiseC || r.SpreadC != l.SpreadC || r.Converged != l.Converged {
			t.Fatalf("sweep at %g°C diverged from RunBatch:\nsweep %+v\nlane  %+v", ambients[i], r, l)
		}
	}
}

// TestFig8SweepShape: the Fig. 8 axis reports one labelled row per ambient
// with both fabrics' clocks.
func TestFig8SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow experiment")
	}
	c := testContext(t)
	ambients := []float64{25, 70}
	serial, err := c.Fig8Sweep("sha", ambients)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(ambients) {
		t.Fatalf("%d rows, want %d", len(serial), len(ambients))
	}
	for i, r := range serial {
		if !strings.Contains(r.Name, "sha@") {
			t.Fatalf("row %d unlabelled: %q", i, r.Name)
		}
		if r.FmaxMHz <= 0 || r.BaselineMHz <= 0 {
			t.Fatalf("row %d missing clocks: %+v", i, r)
		}
	}
}
