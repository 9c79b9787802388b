package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "total jobs")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %g, want 3", got)
	}
	g := r.Gauge("jobs_running", "running jobs")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	// Re-registration returns the same series.
	if r.Counter("jobs_total", "total jobs") != c {
		t.Fatal("counter must be registered once")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "job latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Fatalf("sum = %g, want 56.05", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_sum 56.05",
		"latency_seconds_count 5",
		"# TYPE latency_seconds histogram",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

func TestLabelledFamilies(t *testing.T) {
	r := NewRegistry()
	r.CounterL("http_requests_total", "requests by route", `route="POST /v1/jobs"`).Inc()
	r.CounterL("http_requests_total", "requests by route", `route="GET /metrics"`).Add(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `http_requests_total{route="POST /v1/jobs"} 1`) {
		t.Errorf("missing labelled series:\n%s", out)
	}
	if !strings.Contains(out, `http_requests_total{route="GET /metrics"} 2`) {
		t.Errorf("missing labelled series:\n%s", out)
	}
	if strings.Count(out, "# HELP http_requests_total") != 1 {
		t.Errorf("HELP must be emitted once per family:\n%s", out)
	}
}

func TestTypeCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(1)
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 1 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%g g=%g h=%d", c.Value(), g.Value(), h.Count())
	}
}
