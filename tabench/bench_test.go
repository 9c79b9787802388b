package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"tafpga/internal/coffe"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/jobs"
	"tafpga/internal/techmodel"
)

func TestStreamsRepeatPerSeedAndDifferAcrossSeeds(t *testing.T) {
	check := func(name string, take func(seed int64) any) {
		t.Helper()
		if a, b := take(7), take(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if a, b := take(7), take(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
	check("implement-cold", func(s int64) any { return newStream(s, "implement-cold", coldDeck).take(30) })
	check("guardband-warm", func(s int64) any { return newStream(s, "guardband-warm", warmDeck).take(200) })
	check("serve-warm", func(s int64) any { return newStream(s, "serve-warm", serveDeck).take(60) })
}

func TestDecksHoldTheSameMix(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ops := newStream(seed, "implement-cold", coldDeck).take(len(coldPool))
		var designs, kinds []string
		for _, op := range ops {
			designs = append(designs, op.Design)
			kinds = append(kinds, op.Kind)
		}
		sort.Strings(designs)
		sort.Strings(kinds)
		wantD := append([]string(nil), coldPool...)
		wantK := append([]string(nil), coldKinds...)
		sort.Strings(wantD)
		sort.Strings(wantK)
		if !reflect.DeepEqual(designs, wantD) || !reflect.DeepEqual(kinds, wantK) {
			t.Fatalf("seed %d: cold deck %v", seed, ops)
		}

		count := map[string]int{}
		for _, op := range newStream(seed, "guardband-warm", warmDeck).take(64) {
			count[op.Kind]++
		}
		if count[kindRun] != 44 || count[kindBatch] != 12 || count[kindEnergy] != 8 {
			t.Fatalf("seed %d: warm deck mix %v", seed, count)
		}

		for _, spec := range newStream(seed, "serve-warm", serveDeck).take(25) {
			if err := spec.Validate(); err != nil {
				t.Fatalf("seed %d: invalid serve spec %+v: %v", seed, spec, err)
			}
		}
	}
}

func TestTailLatencyPicksPercentileAndCount(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		maxPct float64
		pct    float64
		beyond int
		ok     bool
	}{
		{n: 10, maxPct: 99, ok: false},
		{n: 19, maxPct: 99, ok: false},
		{n: 20, maxPct: 99, pct: 50, beyond: 10, ok: true},
		{n: 39, maxPct: 99, pct: 50, beyond: 19, ok: true},
		{n: 40, maxPct: 99, pct: 75, beyond: 10, ok: true},
		{n: 100, maxPct: 99, pct: 90, beyond: 10, ok: true},
		{n: 999, maxPct: 99, pct: 95, beyond: 49, ok: true},
		{n: 1000, maxPct: 99, pct: 99, beyond: 10, ok: true},
		{n: 1000, maxPct: 95, pct: 95, beyond: 50, ok: true},
		{n: 5000, maxPct: 75, pct: 75, beyond: 1250, ok: true},
	}
	for _, c := range cases {
		got, ok := tailLatency(seq(c.n), 10, c.maxPct)
		if ok != c.ok {
			t.Errorf("n=%d max p%g: ok=%t, want %t", c.n, c.maxPct, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.Pct != c.pct || got.Beyond != c.beyond {
			t.Errorf("n=%d max p%g: p%g with %d beyond, want p%g with %d", c.n, c.maxPct, got.Pct, got.Beyond, c.pct, c.beyond)
		}
		// Values are 1..n, so the value at nearest rank r is r itself.
		if want := float64(c.n - c.beyond); got.Value != want {
			t.Errorf("n=%d: value %g, want %g", c.n, got.Value, want)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// TestRebuiltPipelineMatchesImplement holds the traced rebuild to
// flow.Implement and the guardband entry points byte for byte on sha, with
// thermally-oblivious and thermal placement, and checks the spans it opens.
func TestRebuiltPipelineMatchesImplement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sha twice per variant")
	}
	dev, err := coffe.SizeDevice(techmodel.Default22nm(), coffe.DefaultParams(), 25)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := generate("sha")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{kindFmax, kindThermal} {
		op := coldOp{Design: "sha", Kind: kind, AmbientC: 40, PlaceSeed: 12345}
		opts := coldFlowOptions(op)
		ref, err := flow.Implement(nl, dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := implementTraced(tr, nl, dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(physics(ref), physics(got)) {
			t.Fatalf("%s: rebuilt implementation differs from flow.Implement", kind)
		}
		gb := guardband.DefaultOptions(op.AmbientC)
		r1, err := ref.Guardband(gb)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := runTraced(tr, got, gb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(physics(r1), physics(r2)) {
			t.Fatalf("%s: traced guardband differs from Implementation.Guardband", kind)
		}
		place := "place.anneal"
		if kind == kindThermal {
			place = "place.thermal_anneal"
			if tr.self["thermalest.kernel"] <= 0 {
				t.Errorf("thermal variant recorded no thermalest.kernel time")
			}
		}
		for _, span := range []string{"activity.estimate", "pack.pack", place, "route.route", "flow.assemble", "guardband.run"} {
			if tr.self[span] <= 0 {
				t.Errorf("%s: no %s time recorded", kind, span)
			}
		}
		if tr.counts["route.iters"] != int64(ref.Routed.Iters) {
			t.Errorf("%s: route.iters %d, want %d", kind, tr.counts["route.iters"], ref.Routed.Iters)
		}
	}
}

// fakeDaemon answers the job API with a fixed terminal state; with hang
// set, event streams never end.
func fakeDaemon(state string, hang bool) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": "j-000001", "state": "queued", "created": time.Now()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if hang {
			<-r.Context().Done()
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"id": "j-000001", "state": state, "error": "injected", "created": time.Now()})
	})
	return httptest.NewServer(mux)
}

func TestClientCountsFailedAndTimedOutJobsAsErrors(t *testing.T) {
	spec := jobs.Spec{Kind: jobs.KindGuardband, Benchmark: "sha", AmbientC: 25}

	failed := fakeDaemon("failed", false)
	defer failed.Close()
	if _, err := runJob(context.Background(), failed.Client(), failed.URL, spec); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("failed job: err = %v, want an error naming the state", err)
	}

	hung := fakeDaemon("running", true)
	defer hung.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := runJob(ctx, hung.Client(), hung.URL, spec); err == nil {
		t.Fatal("job that never finished: no error")
	}

	refused := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer refused.Close()
	if _, err := runJob(context.Background(), refused.Client(), refused.URL, spec); err == nil {
		t.Fatal("non-2xx submit: no error")
	}

	// The closed loop records every such job as an error.
	done, _ := closedLoop(failed.Client(), failed.URL, newStream(1, "serve-warm", serveDeck), 0.05)
	if len(done) == 0 {
		t.Fatal("closed loop ran no jobs")
	}
	for _, s := range done {
		if s.err == nil {
			t.Fatalf("job %d: failed job not counted as an error", s.idx)
		}
	}
}

func TestParseCLIChecksTheReport(t *testing.T) {
	fmaxReport := `implemented on 7x7 grid (router: 4 iterations, rrg: 1 wires)
  fmax (thermal-aware)      43.8 MHz
  fmax (Tworst=100°C)       34.6 MHz
  improvement               26.6 %
  converged in                 2 iterations
  mean rise / spread        1.12 / 0.11 °C
`
	op := coldOp{Design: "sha", Kind: kindFmax, AmbientC: 40}
	res, err := parseCLI(op, fmaxReport)
	if err != nil || res.gainPct != 26.6 {
		t.Fatalf("fmax report: %+v, %v", res, err)
	}
	slow := strings.Replace(fmaxReport, "43.8 MHz", "30.1 MHz", 1)
	if _, err := parseCLI(op, slow); err == nil {
		t.Fatal("fmax below the worst-case clock passed the check")
	}
	if _, err := parseCLI(op, fmaxReport+"  WARNING: iteration budget exhausted\n"); err == nil {
		t.Fatal("unconverged run passed the check")
	}
	energy := `implemented on 7x7 grid (router: 4 iterations, rrg: 1 wires)
  target frequency          34.6 MHz   (= conventional Tworst=100°C clock)
  min safe Vdd             0.700 V   (nominal 0.800 V)
  iso-frequency saving        12.5 %
  timing headroom           35.0 MHz at the min rail
`
	eop := coldOp{Design: "sha", Kind: kindEnergy, AmbientC: 25}
	if res, err := parseCLI(eop, energy); err != nil || res.savingPct != 12.5 {
		t.Fatalf("energy report: %+v, %v", res, err)
	}
	above := strings.Replace(energy, "0.700 V", "0.900 V", 1)
	if _, err := parseCLI(eop, above); err == nil {
		t.Fatal("a rail above nominal passed the check")
	}
	if _, err := parseCLI(op, fmt.Sprintf("router: %d iterations", maxRouteItr+1)); err == nil {
		t.Fatal("a router over its iteration budget passed the check")
	}
}
