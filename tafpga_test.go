package tafpga_test

import (
	"testing"

	"tafpga"
)

// TestPublicAPIQuickstart walks the documented happy path end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := tafpga.NewConfig()
	dev, err := cfg.SizeDevice(25)
	if err != nil {
		t.Fatal(err)
	}
	if dev.CornerC != 25 {
		t.Fatalf("device corner %g", dev.CornerC)
	}
	if dev.RepCP(100) <= dev.RepCP(0) {
		t.Fatal("device must slow down when hot")
	}

	nl, err := tafpga.GenerateBenchmark("sha", 1.0/64)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := tafpga.BenchmarkFlowOptions("sha")
	if err != nil {
		t.Fatal(err)
	}
	opts.ChannelTracks = 104
	opts.PlaceEffort = 0.3
	im, err := tafpga.Implement(nl, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := im.Guardband(tafpga.GuardbandOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if res.GainPct <= 0 {
		t.Fatalf("gain %.1f%% must be positive", res.GainPct)
	}
	if res.Breakdown[tafpga.SBMux] < 0 {
		t.Fatal("breakdown must be accessible through re-exported kinds")
	}
}

func TestBenchmarkCatalog(t *testing.T) {
	bs := tafpga.Benchmarks()
	if len(bs) != 19 {
		t.Fatalf("expected the 19-design suite, got %d", len(bs))
	}
	if _, err := tafpga.GenerateBenchmark("nonesuch", 1); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if _, err := tafpga.BenchmarkFlowOptions("nonesuch"); err == nil {
		t.Fatal("expected error for the recipe of an unknown benchmark")
	}
}

func TestGradeSelection(t *testing.T) {
	if g := tafpga.GradeFor(60, 95); g.Name != "datacenter" {
		t.Fatalf("got grade %q", g.Name)
	}
	if len(tafpga.StandardGrades()) < 3 {
		t.Fatal("grade menu too small")
	}
}

func TestSelectCornerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("sizes several devices")
	}
	cfg := tafpga.NewConfig()
	choices, err := cfg.SelectCorner(60, 100, []float64{25, 70})
	if err != nil {
		t.Fatal(err)
	}
	if choices[0].CornerC != 70 {
		t.Fatalf("hot field must pick the hot corner, got D%.0f", choices[0].CornerC)
	}
}
