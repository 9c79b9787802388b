package obs

// promparse.go is the scrape side of the registry: a parser for the
// Prometheus text exposition format WritePrometheus emits. The benchmark
// harness (tabench) scrapes a daemon's /metrics with it and reads counter
// deltas through Scrape.Sum, without any external tooling.

import (
	"bufio"
	"fmt"
	"io"
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
