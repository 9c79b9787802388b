package obs

// promparse.go is the scrape side of the registry: a parser for the
// Prometheus text exposition format WritePrometheus emits, plus histogram
// reassembly and quantile estimation. The load generator (cmd/taload) and
// the serving benchmark scrape a daemon's /metrics and report p50/p95/p99
// without any external tooling.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label pairs,
// and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is a parsed /metrics payload.
type Scrape struct {
	Samples []Sample
}

// ParseScrape reads a text-exposition payload. Comment and blank lines are
// skipped; malformed sample lines are an error (the format is machine-
// generated, so leniency would only hide bugs).
func ParseScrape(r io.Reader) (*Scrape, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	out := &Scrape{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, err
		}
		out.Samples = append(out.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSampleLine splits `name{labels} value` or `name value`.
func parseSampleLine(line string) (Sample, error) {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return Sample{}, fmt.Errorf("obs: malformed sample line %q", line)
	}
	s := Sample{Name: line[:nameEnd], Labels: map[string]string{}}
	rest := line[nameEnd:]
	if rest[0] == '{' {
		close := strings.Index(rest, "}")
		if close < 0 {
			return Sample{}, fmt.Errorf("obs: unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:close], s.Labels); err != nil {
			return Sample{}, fmt.Errorf("obs: %w in %q", err, line)
		}
		rest = rest[close+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return Sample{}, fmt.Errorf("obs: bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels fills dst from `k="v",k2="v2"`. Values are the quoted form
// WritePrometheus produces; escaped quotes inside values are unescaped.
func parseLabels(in string, dst map[string]string) error {
	for len(in) > 0 {
		eq := strings.Index(in, "=")
		if eq < 0 || len(in) < eq+2 || in[eq+1] != '"' {
			return fmt.Errorf("malformed label pair %q", in)
		}
		key := strings.TrimSpace(in[:eq])
		rest := in[eq+2:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value in %q", in)
		}
		val := strings.ReplaceAll(strings.ReplaceAll(rest[:end], `\"`, `"`), `\\`, `\`)
		dst[key] = val
		in = strings.TrimPrefix(strings.TrimSpace(rest[end+1:]), ",")
		in = strings.TrimSpace(in)
	}
	return nil
}

// Sum adds up every sample of a family across label sets.
func (s *Scrape) Sum(name string) float64 {
	var total float64
	for _, smp := range s.Samples {
		if smp.Name == name {
			total += smp.Value
		}
	}
	return total
}

// Value returns the single unlabelled sample of a family.
func (s *Scrape) Value(name string) (float64, bool) {
	for _, smp := range s.Samples {
		if smp.Name == name && len(smp.Labels) == 0 {
			return smp.Value, true
		}
	}
	return 0, false
}

// HistogramFrom reassembles a family's histogram from its _bucket, _sum,
// and _count samples, summing across label sets (labelled series merge
// into one histogram). The returned snapshot has the same
// shape Histogram.Snapshot produces: ascending finite bounds with
// non-cumulative per-bucket counts, +Inf implicit in the final slot.
func (s *Scrape) HistogramFrom(name string) (HistogramSnapshot, bool) {
	cum := map[float64]float64{} // le bound → cumulative count (summed)
	var snap HistogramSnapshot
	found := false
	for _, smp := range s.Samples {
		switch smp.Name {
		case name + "_bucket":
			le, ok := smp.Labels["le"]
			if !ok {
				continue
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					continue
				}
				bound = v
			}
			cum[bound] += smp.Value
			found = true
		case name + "_sum":
			snap.Sum += smp.Value
		case name + "_count":
			snap.Count += uint64(smp.Value)
		}
	}
	if !found {
		return HistogramSnapshot{}, false
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		if !math.IsInf(b, 1) {
			bounds = append(bounds, b)
		}
	}
	sort.Float64s(bounds)
	snap.Bounds = bounds
	snap.Counts = make([]uint64, len(bounds)+1)
	prev := 0.0
	for i, b := range bounds {
		snap.Counts[i] = uint64(cum[b] - prev)
		prev = cum[b]
	}
	total := cum[math.Inf(1)]
	if total < prev { // tolerate a scrape missing the +Inf line
		total = prev
	}
	snap.Counts[len(bounds)] = uint64(total - prev)
	if snap.Count == 0 {
		snap.Count = uint64(total)
	}
	return snap, true
}

// Quantile estimates the q-quantile (0 < q < 1) the way Prometheus's
// histogram_quantile does: find the bucket holding the target rank and
// interpolate linearly inside it (the first bucket interpolates from 0).
// Observations in the +Inf bucket clamp to the highest finite bound. A
// histogram with no observations returns NaN.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	total := uint64(0)
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 || len(h.Bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range h.Counts {
		next := cum + float64(c)
		if rank <= next || i == len(h.Counts)-1 {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1]
}
