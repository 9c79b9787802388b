// Package obs is a dependency-free metrics registry: counters, gauges, and
// histograms grouped into families and rendered in the Prometheus text
// exposition format. It exists so the serving layer (internal/server,
// cmd/tafpgad) can expose a /metrics endpoint without pulling a client
// library into a stdlib-only module.
//
// Families are identified by name; each family holds one series per label
// string (the literal `key="value",...` inside the braces, possibly empty).
// All instruments are safe for concurrent use and cheap enough for hot
// paths: counters and gauges are a single atomic word, histograms take one
// short mutex.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (negative deltas are ignored — counters
// are monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []uint64  // len(bounds)+1, non-cumulative per bucket
	sum    float64
	total  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// HistogramSnapshot is a point-in-time copy of a histogram in which the
// bucket counts, sum, and count are mutually consistent: they were taken
// under one lock acquisition, so sum(Counts) == Count and Sum reflects
// exactly those observations. Separate Count()/Sum() calls cannot promise
// that — an Observe can land between them.
type HistogramSnapshot struct {
	Bounds []float64 // ascending upper bounds; +Inf is implicit
	Counts []uint64  // non-cumulative per bucket, len(Bounds)+1
	Sum    float64
	Count  uint64
}

// Snapshot returns a consistent copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.total,
	}
}

// DefBuckets are the default latency buckets (seconds), spanning the
// millisecond-to-minutes range a guardband job can take.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// kind discriminates the family types.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// family is one named metric family with its typed series per label set.
type family struct {
	name string
	help string
	k    kind

	series map[string]any // label string → *Counter/*Gauge/*Histogram
	order  []string       // label strings in first-registration order
}

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// get returns the named family, creating it with the given kind, or panics
// on a kind collision — mixing types under one name is a programming error
// worth failing loudly on.
func (r *Registry) get(name, help string, k kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, k: k, series: map[string]any{}}
		r.fams[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.k != k {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	return f
}

// seriesFor returns the labelled series of a family, creating it via mk.
// Must be called with r.mu NOT held (takes it itself).
func (r *Registry) seriesFor(f *family, labels string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := f.series[labels]
	if !ok {
		s = mk()
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s
}

// Counter returns (registering on first use) the counter of a family with
// no labels.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, help, "")
}

// CounterL returns the counter series for a label string such as
// `route="POST /v1/jobs"` (no surrounding braces; empty = unlabelled).
func (r *Registry) CounterL(name, help, labels string) *Counter {
	f := r.get(name, help, kindCounter)
	return r.seriesFor(f, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabelled gauge of a family.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeL(name, help, "")
}

// GaugeL returns the gauge series for a label string.
func (r *Registry) GaugeL(name, help, labels string) *Gauge {
	f := r.get(name, help, kindGauge)
	return r.seriesFor(f, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the unlabelled histogram of a family. buckets are the
// ascending upper bounds (nil = DefBuckets); they are fixed at first
// registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramL(name, help, "", buckets)
}

// HistogramL returns the histogram series for a label string.
func (r *Registry) HistogramL(name, help, labels string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.get(name, help, kindHistogram)
	return r.seriesFor(f, labels, func() any {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}).(*Histogram)
}

// WritePrometheus renders every family in the text exposition format, in
// registration order (stable output for tests and diffing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family list; instrument reads are atomic/locked on
	// their own, so rendering proceeds without the registry lock.
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		typ := map[kind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[f.k]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ)
		r.mu.Lock()
		labelSets := append([]string(nil), f.order...)
		r.mu.Unlock()
		for _, labels := range labelSets {
			r.mu.Lock()
			s := f.series[labels]
			r.mu.Unlock()
			switch v := s.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, braced(labels), formatVal(v.Value()))
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, braced(labels), formatVal(v.Value()))
			case *Histogram:
				// Render from a snapshot: the histogram lock is held only
				// for the copy, not the formatting, and every line of this
				// series describes the same instant.
				snap := v.Snapshot()
				cum := uint64(0)
				for i, bound := range snap.Bounds {
					cum += snap.Counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, braced(joinLabels(labels, fmt.Sprintf(`le="%s"`, formatVal(bound)))), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, braced(joinLabels(labels, `le="+Inf"`)), snap.Count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, braced(labels), formatVal(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, braced(labels), snap.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// braced wraps a non-empty label string in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// joinLabels appends one label pair to a possibly empty label string.
func joinLabels(labels, pair string) string {
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// formatVal renders a float the Prometheus way: integers without a decimal
// point, everything else in shortest round-trip form.
func formatVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
