package obs

// promparse_test.go round-trips the registry through its own text
// exposition: whatever WritePrometheus emits, ParseScrape must reassemble
// losslessly — including labeled histograms merged across label sets.

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestParseScrapeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_requests_total", "requests").Add(41)
	reg.Counter("t_requests_total", "requests").Inc()
	reg.Gauge("t_queue_depth", "depth").Set(7)
	reg.CounterL("t_jobs_total", "jobs", `state="done"`).Add(3)
	reg.CounterL("t_jobs_total", "jobs", `state="failed"`).Add(2)
	reg.GaugeL("t_build_info", "info", `replica="r0",addr="127.0.0.1:0"`).Set(1)
	h := reg.Histogram("t_latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	sc, err := ParseScrape(&buf)
	if err != nil {
		t.Fatalf("ParseScrape: %v", err)
	}

	if v, ok := sc.Value("t_requests_total"); !ok || v != 42 {
		t.Fatalf("t_requests_total = %v, %v; want 42, true", v, ok)
	}
	if v, ok := sc.Value("t_queue_depth"); !ok || v != 7 {
		t.Fatalf("t_queue_depth = %v, %v; want 7, true", v, ok)
	}
	if got := sc.Sum("t_jobs_total"); got != 5 {
		t.Fatalf("Sum(t_jobs_total) = %v, want 5", got)
	}
	var info *Sample
	for i := range sc.Samples {
		if sc.Samples[i].Name == "t_build_info" {
			info = &sc.Samples[i]
		}
	}
	if info == nil {
		t.Fatal("t_build_info not parsed")
	}
	if info.Labels["replica"] != "r0" || info.Labels["addr"] != "127.0.0.1:0" {
		t.Fatalf("t_build_info labels = %v", info.Labels)
	}

	snap, ok := sc.HistogramFrom("t_latency_seconds")
	if !ok {
		t.Fatal("t_latency_seconds histogram not reassembled")
	}
	want := h.Snapshot()
	if len(snap.Bounds) != len(want.Bounds) || snap.Count != want.Count || snap.Sum != want.Sum {
		t.Fatalf("reassembled snapshot %+v differs from original %+v", snap, want)
	}
	for i := range want.Counts {
		if snap.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: got %d want %d", i, snap.Counts[i], want.Counts[i])
		}
	}
}

func TestParseScrapeMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here",
		`metric{le="0.1" 3`,
		`metric{le=0.1} 3`,
		"metric notanumber",
	} {
		if _, err := ParseScrape(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseScrape accepted %q", bad)
		}
	}
	// Comments and blanks are fine.
	sc, err := ParseScrape(strings.NewReader("# HELP x y\n\n# TYPE x counter\nx 1\n"))
	if err != nil || len(sc.Samples) != 1 {
		t.Fatalf("comment handling: %v, %v", sc, err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 100 observations uniform in the 0–1 bucket structure:
	// bounds 1,2,4; 50 in (0,1], 30 in (1,2], 20 in (2,4].
	snap := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []uint64{50, 30, 20, 0},
		Count:  100,
	}
	cases := []struct{ q, want float64 }{
		{0.5, 1.0},  // rank 50 is exactly the top of bucket 1
		{0.25, 0.5}, // halfway into the first bucket (interpolated from 0)
		{0.8, 2.0},  // rank 80 tops bucket 2
		{0.9, 3.0},  // halfway through (2,4]
		{0.99, 3.9},
	}
	for _, c := range cases {
		got := snap.Quantile(c.q)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// +Inf observations clamp to the top finite bound.
	inf := HistogramSnapshot{Bounds: []float64{1}, Counts: []uint64{0, 10}, Count: 10}
	if got := inf.Quantile(0.5); got != 1 {
		t.Errorf("+Inf bucket quantile = %g, want 1", got)
	}
	var empty HistogramSnapshot
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
}
