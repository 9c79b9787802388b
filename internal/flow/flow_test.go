package flow

import (
	"sync"
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/guardband"
	"tafpga/internal/netlist"
	"tafpga/internal/techmodel"
)

var (
	devOnce sync.Once
	dev25   *coffe.Device
	dev70   *coffe.Device
)

func devices(t testing.TB) (*coffe.Device, *coffe.Device) {
	t.Helper()
	devOnce.Do(func() {
		kit := techmodel.Default22nm()
		dev25 = coffe.MustSizeDevice(kit, coffe.DefaultParams(), 25)
		dev70 = coffe.MustSizeDevice(kit, coffe.DefaultParams(), 70)
	})
	return dev25, dev70
}

func testOptions(name string) Options {
	o := DefaultOptions()
	o.Seed = bench.SeedFor(name)
	o.PlaceEffort = 0.3
	o.ChannelTracks = 104
	return o
}

func implement(t *testing.T, name string, scale float64) *Implementation {
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
	return im
}

func TestImplementEndToEnd(t *testing.T) {
	im := implement(t, "raygentop", 1.0/32)
	if im.Grid == nil || im.Packed == nil || im.Placed == nil || im.Routed == nil {
		t.Fatal("incomplete implementation")
	}
	if len(im.Activity) != len(im.Netlist.Blocks) {
		t.Fatal("activity vector mismatched")
	}
	res, err := im.Guardband(guardband.DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if res.GainPct <= 0 {
		t.Fatalf("guardbanding gain %.1f%% must be positive", res.GainPct)
	}
}

func TestImplementRejectsUnfrozenNetlist(t *testing.T) {
	d, _ := devices(t)
	nl := netlist.New("raw")
	nl.Add(netlist.Input, "a", nil, 0)
	if _, err := Implement(nl, d, DefaultOptions()); err == nil {
		t.Fatal("expected error")
	}
}

func TestWithDeviceSharesImplementation(t *testing.T) {
	d25, d70 := devices(t)
	im := implement(t, "sha", 1.0/32)
	im70, err := im.WithDevice(d70)
	if err != nil {
		t.Fatal(err)
	}
	if im70.Placed != im.Placed || im70.Routed != im.Routed {
		t.Fatal("placement/routing must be shared across devices")
	}
	if im70.Device != d70 || im.Device != d25 {
		t.Fatal("device binding wrong")
	}

	// The original implementation's analyzer must be untouched.
	if im.Timing.Dev != d25 {
		t.Fatal("original analyzer mutated")
	}
}

func TestWithDeviceRejectsDifferentArch(t *testing.T) {
	im := implement(t, "sha", 1.0/64)
	p := coffe.DefaultParams()
	p.N = 8
	other := coffe.MustSizeDevice(techmodel.Default22nm(), p, 25)
	if _, err := im.WithDevice(other); err == nil {
		t.Fatal("expected architecture mismatch error")
	}
}

func TestFlowDeterministic(t *testing.T) {
	a := implement(t, "sha", 1.0/64)
	b := implement(t, "sha", 1.0/64)
	ra, err := a.Guardband(guardband.DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Guardband(guardband.DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if ra.FmaxMHz != rb.FmaxMHz || ra.BaselineMHz != rb.BaselineMHz {
		t.Fatalf("flow not deterministic: %g/%g vs %g/%g",
			ra.FmaxMHz, ra.BaselineMHz, rb.FmaxMHz, rb.BaselineMHz)
	}
}

func TestHotGradeWinsAtHotAmbient(t *testing.T) {
	_, d70 := devices(t)
	im := implement(t, "raygentop", 1.0/32)
	im70, err := im.WithDevice(d70)
	if err != nil {
		t.Fatal(err)
	}
	r25, err := im.Guardband(guardband.DefaultOptions(70))
	if err != nil {
		t.Fatal(err)
	}
	r70, err := im70.Guardband(guardband.DefaultOptions(70))
	if err != nil {
		t.Fatal(err)
	}
	if r70.FmaxMHz <= r25.FmaxMHz {
		t.Fatalf("the 70°C-sized fabric must win at a 70°C ambient: %g vs %g (Fig. 8)",
			r70.FmaxMHz, r25.FmaxMHz)
	}
}
