package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"tafpga/internal/flow"
	"tafpga/internal/guardband"
)

// seedVariant installs an already-built implementation under a variant key,
// so keying tests can observe which slot a lookup resolves to without
// paying a real pack/place/route.
func seedVariant(c *Context, key string, im *flow.Implementation) {
	e := &implEntry{}
	e.once.Do(func() { e.im = im })
	c.mu.Lock()
	c.impls[key] = e
	c.mu.Unlock()
}

// TestImplVariantSingleflight pins the shared-build hoist: one build per
// key per context — pointer-equal results on repeat lookups, zero extra
// build invocations, and a failure cached like a success.
func TestImplVariantSingleflight(t *testing.T) {
	c := NewContext(1.0 / 64)
	builds := 0
	fake := &flow.Implementation{}
	build := func() (*flow.Implementation, error) {
		builds++
		return fake, nil
	}
	for i := 0; i < 3; i++ {
		im, err := c.implVariant("k1", build)
		if err != nil {
			t.Fatal(err)
		}
		if im != fake {
			t.Fatal("variant slot returned a different implementation")
		}
	}
	if builds != 1 {
		t.Fatalf("3 lookups of one key ran %d builds", builds)
	}
	if _, err := c.implVariant("k2", build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("distinct key did not build: %d builds", builds)
	}

	failures := 0
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := c.implVariant("bad", func() (*flow.Implementation, error) {
			failures++
			return nil, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("lookup %d: error %v, want cached boom", i, err)
		}
	}
	if failures != 1 {
		t.Fatalf("failing benchmark built %d times, want once", failures)
	}
}

// TestVariantKeying pins which slot each public lookup resolves to: the
// zero thermal spec and the 25 °C corner are the baseline slot, a thermal
// spec keys by weight and resolved radius, a corner re-target by corner.
func TestVariantKeying(t *testing.T) {
	c := NewContext(1.0 / 64)
	base := &flow.Implementation{}
	therm := &flow.Implementation{}
	seedVariant(c, "sha", base)
	seedVariant(c, "sha|thermal:w=0.5,r=6", therm)

	if im, err := c.Implementation("sha"); err != nil || im != base {
		t.Fatalf("Implementation missed the baseline slot: %v, %v", im, err)
	}
	// Weight <= 0 is exactly the baseline and must share its slot.
	if im, err := c.ThermalImplementation("sha", flow.ThermalPlace{}); err != nil || im != base {
		t.Fatalf("zero thermal spec missed the baseline slot: %v, %v", im, err)
	}
	// Radius 0 resolves to the default before keying.
	if im, err := c.ThermalImplementation("sha", flow.ThermalPlace{Weight: 0.5}); err != nil || im != therm {
		t.Fatalf("thermal spec with default radius missed its slot: %v, %v", im, err)
	}
	if im, err := c.ThermalImplementation("sha", flow.ThermalPlace{Weight: 0.5, KernelRadius: 6}); err != nil || im != therm {
		t.Fatalf("explicit default radius missed the shared slot: %v, %v", im, err)
	}
	// The 25 °C corner re-target is the baseline itself.
	if im, err := c.implementationAt("sha", 25); err != nil || im != base {
		t.Fatalf("25C corner missed the baseline slot: %v, %v", im, err)
	}

	// Other corners hoist into their own slot: Fig8 and Fig8Sweep share
	// one re-assembly instead of paying WithDevice per driver call.
	corner := &flow.Implementation{}
	seedVariant(c, "sha@70", corner)
	for i := 0; i < 2; i++ {
		if im, err := c.implementationAt("sha", 70); err != nil || im != corner {
			t.Fatalf("70C corner lookup %d missed the hoisted slot: %v, %v", i, im, err)
		}
	}
}

// TestFormatThermalCompare locks the comparison table's shape: header,
// per-row values, the average row, and the cooler/non-inferior footer.
func TestFormatThermalCompare(t *testing.T) {
	rs := []ThermalCompareResult{
		{Name: "sha", BaselinePeakC: 40, ThermalPeakC: 38.5, DeltaPeakC: -1.5,
			BaselineMHz: 200, ThermalMHz: 201, DeltaFmaxPct: 0.5, Converged: true,
			Stats: guardband.Stats{}},
		{Name: "mcml", BaselinePeakC: 50, ThermalPeakC: 50.5, DeltaPeakC: 0.5,
			BaselineMHz: 100, ThermalMHz: 99, DeltaFmaxPct: -1, Converged: false},
	}
	got := FormatThermalCompare("title", rs)
	for _, want := range []string{
		"title",
		"benchmark",
		"sha",
		"mcml",
		"[UNCONVERGED]",
		"average",
		"cooler on 1/2 benchmarks, fmax non-inferior on 1/2",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("table missing %q:\n%s", want, got)
		}
	}
}

// TestWriteThermalCompareCSV locks the CSV schema.
func TestWriteThermalCompareCSV(t *testing.T) {
	rs := []ThermalCompareResult{
		{Name: "sha", BaselinePeakC: 40, ThermalPeakC: 38.5, DeltaPeakC: -1.5,
			BaselineMHz: 200, ThermalMHz: 201, DeltaFmaxPct: 0.5, Converged: true},
	}
	var b strings.Builder
	if err := WriteThermalCompareCSV(&b, rs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + row + average, got %d lines:\n%s", len(lines), b.String())
	}
	if lines[0] != "benchmark,baseline_peak_c,thermal_peak_c,delta_peak_c,baseline_mhz,thermal_mhz,delta_fmax_pct,converged" {
		t.Fatalf("header changed: %s", lines[0])
	}
	if lines[1] != "sha,40.000,38.500,-1.500,200.00,201.00,0.50,true" {
		t.Fatalf("row changed: %s", lines[1])
	}
}

// TestDriversRejectAmbientBeforeImplementing: every driver that takes an
// ambient axis checks it before its first implementation, so an ambient
// outside guardband's range fails with no benchmark built — OnBenchDone
// never fires and the variant cache stays empty.
func TestDriversRejectAmbientBeforeImplementing(t *testing.T) {
	drivers := map[string]func(c *Context) error{
		"EnergySweep": func(c *Context) error {
			_, err := c.EnergySweep([]float64{25, 200}, 0)
			return err
		},
		"ThermalPlaceCompare": func(c *Context) error {
			_, err := c.ThermalPlaceCompare(999, flow.ThermalPlace{Weight: 0.25})
			return err
		},
		"GuardbandSweep": func(c *Context) error {
			_, err := c.GuardbandSweep("sha", []float64{25, -60})
			return err
		},
		"Fig8Sweep": func(c *Context) error {
			_, err := c.Fig8Sweep("sha", []float64{math.NaN()})
			return err
		},
	}
	for name, run := range drivers {
		c := NewContext(1.0 / 64)
		c.Benchmarks = []string{"sha"}
		done := 0
		c.OnBenchDone = func(string, time.Duration) { done++ }
		err := run(c)
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("%s: err = %v, want an out-of-range ambient error", name, err)
		}
		if done != 0 || len(c.impls) != 0 {
			t.Fatalf("%s: %d benchmarks done and %d variants built before the ambient check",
				name, done, len(c.impls))
		}
	}
}
