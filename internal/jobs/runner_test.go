package jobs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSweepProgressCarriesZeroAmbient: every progress event of a served
// sweep names its ambient, 0 °C included, and state events carry none.
func TestSweepProgressCarriesZeroAmbient(t *testing.T) {
	r := NewRunner(RunnerConfig{Scale: 1.0 / 64, ChannelTracks: 104, PlaceEffort: 0.3})
	m := New(r.Run, Options{Workers: 1})
	defer m.Close()
	v, _, err := m.Submit(Spec{Kind: KindSweep, Benchmark: "sha", Ambients: []float64{0, 25}})
	if err != nil {
		t.Fatal(err)
	}
	events, ch, stop, err := m.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for e := range ch {
		events = append(events, e)
	}
	if last := events[len(events)-1]; last.State != StateDone {
		t.Fatalf("sweep ended %s: %s", last.State, last.Error)
	}
	var stream strings.Builder
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		line := string(b)
		if has := strings.Contains(line, `"ambient_c":`); has != (e.Type == EventProgress) {
			t.Fatalf("%s event with ambient_c=%v: %s", e.Type, has, line)
		}
		stream.WriteString(line + "\n")
	}
	for _, want := range []string{`"ambient_c":0,`, `"ambient_c":25,`} {
		if !strings.Contains(stream.String(), want) {
			t.Fatalf("stream has no progress event with %s:\n%s", want, stream.String())
		}
	}
}
