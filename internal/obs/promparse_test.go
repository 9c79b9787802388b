package obs

// promparse_test.go round-trips the registry through its own text
// exposition: whatever WritePrometheus emits, ParseScrape must read back
// losslessly, sample by sample — histograms included.

import (
	"bytes"
	"sort"
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

	// Every sample keyed by its name and sorted label pairs.
	got := map[string]float64{}
	for _, smp := range sc.Samples {
		pairs := make([]string, 0, len(smp.Labels))
		for k, v := range smp.Labels {
			pairs = append(pairs, k+"="+v)
		}
		sort.Strings(pairs)
		got[smp.Name+"{"+strings.Join(pairs, ",")+"}"] = smp.Value
	}
	for key, want := range map[string]float64{
		"t_requests_total{}": 42,
		"t_queue_depth{}":    7,
		// Label values with dots and colons survive the quoting.
		"t_build_info{addr=127.0.0.1:0,replica=r0}": 1,
		// The histogram exposition: cumulative buckets, +Inf equal to the
		// count, and the exact sum.
		"t_latency_seconds_bucket{le=0.1}":  1,
		"t_latency_seconds_bucket{le=1}":    3,
		"t_latency_seconds_bucket{le=10}":   4,
		"t_latency_seconds_bucket{le=+Inf}": 5,
		"t_latency_seconds_sum{}":           h.Snapshot().Sum,
		"t_latency_seconds_count{}":         5,
	} {
		if v, ok := got[key]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", key, v, ok, want)
		}
	}
	if got := sc.Sum("t_jobs_total"); got != 5 {
		t.Fatalf("Sum(t_jobs_total) = %v, want 5", got)
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
