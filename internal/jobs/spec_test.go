package jobs

// spec_test.go fuzzes the job-spec trust boundary: whatever JSON a client
// posts, decoding and admission must not panic, an accepted spec may only
// carry ambients the guardband accepts, and its dedup key must survive the
// JSON round trip its spec file in the state dir puts it through.

import (
	"encoding/json"
	"testing"

	"tafpga/internal/guardband"
)

// specAmbients returns the ambients a spec's kind reads.
func specAmbients(s Spec) []float64 {
	switch s.Kind {
	case KindGuardband, KindThermalPlaceCompare:
		return []float64{s.AmbientC}
	case KindSweep, KindMinEnergy:
		return s.Ambients
	}
	return nil
}

func FuzzSpec(f *testing.F) {
	// The specs of the validation and keying tests, accepted and rejected.
	for _, s := range []Spec{
		validSpec(0), energySpec(), thermalSpec(),
		{Kind: KindSweep, Benchmark: "sha", Ambients: []float64{25, 45}},
		{Kind: KindFigure, Figure: "fig6"},
		{Kind: KindGuardband, Benchmark: "sha", AmbientC: 25, Ambients: []float64{1, 2}, Figure: "fig6"},
		{Kind: "nope"},
		{Kind: KindGuardband, Benchmark: "nonesuch", AmbientC: 25},
		{Kind: KindGuardband, Benchmark: "sha", AmbientC: 400},
		{Kind: KindFigure, Figure: "fig99"},
		{Kind: KindMinEnergy, Benchmark: "sha", Ambients: []float64{25}, TargetMHz: -1},
		{Kind: KindThermalPlaceCompare, AmbientC: 25, ThermalWeight: 0.5, ThermalRadius: 1000},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Inputs a client can send but Marshal never produces: negative zeros
	// in omitempty fields, an overflowing number, a quoted number.
	f.Add([]byte(`{"kind":"guardband","benchmark":"sha","ambient_c":-0}`))
	f.Add([]byte(`{"kind":"min-energy","benchmark":"sha","ambients":[-0],"target_mhz":-0}`))
	f.Add([]byte(`{"kind":"sweep","benchmark":"sha","ambients":[1e309]}`))
	f.Add([]byte(`{"kind":"guardband","benchmark":"sha","ambient_c":"25"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		key := s.Key()
		if s.Validate() != nil {
			return
		}
		for _, a := range specAmbients(s) {
			if err := guardband.CheckAmbient(a); err != nil {
				t.Fatalf("accepted spec %+v: %v", s, err)
			}
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", s, err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-decode %s: %v", enc, err)
		}
		if back.Key() != key {
			t.Fatalf("key changed across a JSON round trip: %s became %s", data, enc)
		}
	})
}
