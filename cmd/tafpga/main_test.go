package main

import (
	"reflect"
	"testing"

	"tafpga"
	"tafpga/internal/bench"
	"tafpga/internal/flow"
	"tafpga/internal/jobs"
)

// TestNamedBenchmarkOptionsMatchDaemon pins tafpga's flow options for every
// named benchmark to the ones taexp and a tafpgad job build it with, under
// default and overridden run flags: one design gives one answer whichever
// command prints it. Under the default flags they are the public recipe,
// tafpga.BenchmarkFlowOptions.
func TestNamedBenchmarkOptionsMatchDaemon(t *testing.T) {
	for _, cfg := range []jobs.RunnerConfig{
		{PlaceEffort: 1},
		{ChannelTracks: 104, PlaceEffort: 0.3},
	} {
		c := jobs.NewRunner(cfg).Context(nil, nil)
		for _, tp := range []flow.ThermalPlace{{}, {Weight: 0.25, KernelRadius: 3}} {
			for _, p := range bench.VTR {
				want := c.FlowOptions(p, tp)
				want.Cache = nil // tafpga caches only with -flowcache
				got, err := flowOptions(p.Name, true, &cfg, 0, tp)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s (%+v, %+v): tafpga builds with %+v, %v; taexp and tafpgad with %+v",
						p.Name, cfg, tp, got, err, want)
				}
				if cfg.ChannelTracks == 0 && tp == (flow.ThermalPlace{}) {
					if pub, err := tafpga.BenchmarkFlowOptions(p.Name); err != nil || !reflect.DeepEqual(got, pub) {
						t.Errorf("%s: tafpga builds with %+v; the public recipe is %+v, %v", p.Name, got, pub, err)
					}
				}
			}
		}
	}
}

// TestFlowOptionsOverrides: -seed and -flowcache override the recipe, and
// an -in netlist keeps the flow defaults seeded from its name.
func TestFlowOptionsOverrides(t *testing.T) {
	cfg := jobs.RunnerConfig{PlaceEffort: 1, FlowCacheDir: t.TempDir()}
	got, err := flowOptions("sha", true, &cfg, 7, flow.ThermalPlace{})
	want, _ := tafpga.BenchmarkFlowOptions("sha")
	want.Seed, want.Cache = 7, got.Cache
	if err != nil || got.Cache == nil || got.PIDensity != 0.15 || !reflect.DeepEqual(got, want) {
		t.Errorf("sha -seed 7 -flowcache: %+v, %v; want the recipe (PIDensity 0.15) with seed 7 and a cache", got, err)
	}
	want = flow.DefaultOptions()
	want.Seed = bench.SeedFor("external")
	cfg.FlowCacheDir = ""
	if got, err := flowOptions("external", false, &cfg, 0, flow.ThermalPlace{}); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("-in: %+v, %v; want the flow defaults %+v", got, err, want)
	}
	if _, err := flowOptions("no-such-design", true, &cfg, 0, flow.ThermalPlace{}); err == nil {
		t.Error("an unknown benchmark name built options")
	}
}
