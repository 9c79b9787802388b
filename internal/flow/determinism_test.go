package flow

import (
	"bytes"
	"encoding/gob"
	"testing"

	"tafpga/internal/bench"
)

// flowFingerprint serializes everything downstream models read from a flow
// build — placement tiles and cost, router iterations, max occupancy, and
// every net's sink paths in canonical (sorted) order — so two builds can be
// compared for byte identity. It reuses the cache's snapshot encoding: the
// same bytes the on-disk cache would store.
func flowFingerprint(t *testing.T, im *Implementation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snapshot(im.Placed, im.Routed)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildOnce runs the full flow front-end cacheless (each call really
// packs, places, and routes).
func buildOnce(t *testing.T, name string, scale float64) []byte {
	t.Helper()
	d, _ := devices(t)
	prof, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(prof.Scaled(scale), bench.SeedFor(name))
	if err != nil {
		t.Fatal(err)
	}
	im, err := Implement(nl, d, testOptions(name))
	if err != nil {
		t.Fatal(err)
	}
	return flowFingerprint(t, im)
}

// TestFlowBuildDeterminism: the whole implementation front-end must be a
// pure function of its inputs — byte-identical across repeated runs.
func TestFlowBuildDeterminism(t *testing.T) {
	base := buildOnce(t, "sha", 1.0/64)
	for rep := 0; rep < 2; rep++ {
		got := buildOnce(t, "sha", 1.0/64)
		if !bytes.Equal(got, base) {
			t.Fatalf("flow build diverges at rep=%d (%d vs %d bytes)", rep, len(got), len(base))
		}
	}
}
