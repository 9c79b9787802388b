package main

import "time"

// tracer records nested spans around calls into the repository's layers and
// accumulates each span name's self time: its duration minus the part its
// child spans cover. Spans and counts stay in memory until the run reports
// them. It is used from one goroutine.
type tracer struct {
	self   map[string]time.Duration
	counts map[string]int64
	stack  []frame
}

type frame struct {
	name  string
	start time.Time
	child time.Duration
}

func newTracer() *tracer {
	return &tracer{self: map[string]time.Duration{}, counts: map[string]int64{}}
}

// begin opens a span; the returned function closes it.
func (t *tracer) begin(name string) func() {
	t.stack = append(t.stack, frame{name: name, start: time.Now()})
	depth := len(t.stack)
	return func() {
		f := t.stack[depth-1]
		t.stack = t.stack[:depth-1]
		d := time.Since(f.start)
		t.self[f.name] += d - f.child
		if depth > 1 {
			t.stack[depth-2].child += d
		}
	}
}

// child attributes time measured inside the program (guardband.Stats kernel
// time) to a named child of the open span.
func (t *tracer) child(name string, d time.Duration) {
	t.self[name] += d
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// count adds n to a work counter.
func (t *tracer) count(name string, n int64) { t.counts[name] += n }

// selfSeconds returns a span name's accumulated self time in seconds.
func (t *tracer) selfSeconds(name string) float64 { return t.self[name].Seconds() }
