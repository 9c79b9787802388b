// Front-end profiling benchmarks: the implementation pipeline stages the
// flow-level result cache short-circuits — timing-driven placement,
// PathFinder routing, and the complete pack→place→route build. They are
// entry points for pprof:
//
//	go test -run '^$' -bench BenchmarkRoute -benchtime 1x -cpuprofile cpu.out .
//
// Performance records come from tabench (implement-cold), not from these.
// The subject is mcml, the largest bundled benchmark, at the shared harness
// scale — the same fixture the inner-loop benchmarks use.
package tafpga_test

import (
	"sync"
	"testing"

	"tafpga/internal/arch"
	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/flow"
	"tafpga/internal/hotspot"
	"tafpga/internal/netlist"
	"tafpga/internal/pack"
	"tafpga/internal/place"
	"tafpga/internal/route"
	"tafpga/internal/thermalest"
)

type frontendFixture struct {
	nl     *netlist.Netlist
	dev    *coffe.Device
	packed *pack.Result
	grid   *arch.Grid
	graph  *route.Graph
	placed *place.Placement
	opts   flow.Options
}

var (
	frontOnce sync.Once
	front     frontendFixture
	frontErr  error
)

// frontendSetup prepares the mcml front-end inputs once: the generated
// netlist, the packed design, the grid and routing graph, and one placement
// to route. The flow options mirror the shared harness context (effort 0.5,
// Table I channel width).
func frontendSetup(b *testing.B) frontendFixture {
	b.Helper()
	frontOnce.Do(func() {
		frontErr = func() error {
			ctx := sharedContext(b)
			dev, err := ctx.Device(25)
			if err != nil {
				return err
			}
			prof, err := bench.ByName("mcml")
			if err != nil {
				return err
			}
			nl, err := bench.Generate(prof.Scaled(benchScale), bench.SeedFor("mcml"))
			if err != nil {
				return err
			}
			packed, err := pack.Pack(nl, dev.Arch.N, dev.Arch.ClusterInputs)
			if err != nil {
				return err
			}
			params := dev.Arch
			if benchWidth > 0 {
				params.ChannelTracks = benchWidth
			}
			grid, err := arch.Build(params, len(packed.Clusters), len(packed.BRAMs), len(packed.DSPs))
			if err != nil {
				return err
			}
			placed, err := place.Place(packed, grid, bench.SeedFor("mcml"), 0.5)
			if err != nil {
				return err
			}
			opts := flow.DefaultOptions()
			opts.Seed = bench.SeedFor("mcml")
			opts.PlaceEffort = 0.5
			opts.ChannelTracks = benchWidth
			opts.PIDensity = prof.PIDensity
			front = frontendFixture{
				nl: nl, dev: dev, packed: packed, grid: grid,
				graph: route.BuildGraph(grid), placed: placed, opts: opts,
			}
			return nil
		}()
	})
	if frontErr != nil {
		b.Fatal(frontErr)
	}
	return front
}

// BenchmarkPlace measures the annealer, which reprices every touched net with
// the branch-free span kernel.
func BenchmarkPlace(b *testing.B) {
	f := frontendSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.Place(f.packed, f.grid, bench.SeedFor("mcml"), 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoute measures the pooled CSR PathFinder on a prebuilt graph.
func BenchmarkRoute(b *testing.B) {
	f := frontendSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Route(f.placed, f.graph, f.opts.Router); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowBuild measures the complete cold-cache implementation build
// (activity → pack → grid → place → route → model assembly) with the
// optimized front-end.
func BenchmarkFlowBuild(b *testing.B) {
	f := frontendSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Implement(f.nl, f.dev, f.opts); err != nil {
			b.Fatal(err)
		}
	}
}

// thermalEstimateSetup builds the thermal estimator over the mcml grid:
// the hotspot model, the truncated kernel, per-tile powers shaped like a
// placement deposition, and a pseudo-random move schedule — shared by the
// MoveDelta/FullSolve pair so both price the same moves on the same grid.
func thermalEstimateSetup(b *testing.B) (*hotspot.Model, *thermalest.Estimate, []float64, [][2]int) {
	b.Helper()
	f := frontendSetup(b)
	m, err := hotspot.NewModel(f.grid.W, f.grid.H, 5e6)
	if err != nil {
		b.Fatal(err)
	}
	k, err := thermalest.KernelFor(m, 0)
	if err != nil {
		b.Fatal(err)
	}
	n := f.grid.NumTiles()
	pow := make([]float64, n)
	for i := range pow {
		pow[i] = 600 + float64((i*2654435761)%4096)
	}
	est, err := thermalest.New(k, pow)
	if err != nil {
		b.Fatal(err)
	}
	moves := make([][2]int, 1024)
	for i := range moves {
		moves[i] = [2]int{(i * 40503) % n, (i*9973 + 17) % n}
	}
	return m, est, pow, moves
}

// BenchmarkThermalPlaceMoveDelta measures pricing one placement move with
// the truncated-kernel estimator — the annealer-inner-loop cost the
// thermal term adds. Allocation-free by contract (pinned in thermalest's
// tests); the before/after pair against BenchmarkThermalPlaceFullSolve
// quantifies what the kernel truncation buys over a full thermal solve
// per move.
func BenchmarkThermalPlaceMoveDelta(b *testing.B) {
	_, est, _, moves := thermalEstimateSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv := moves[i%len(moves)]
		est.MoveDelta(500, mv[0], mv[1])
	}
}

// BenchmarkThermalPlaceFullSolve measures the alternative the estimator
// replaces: one exact hotspot solve of the whole die per priced move.
func BenchmarkThermalPlaceFullSolve(b *testing.B) {
	m, _, pow, moves := thermalEstimateSetup(b)
	scratch := append([]float64(nil), pow...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv := moves[i%len(moves)]
		scratch[mv[0]] -= 500
		scratch[mv[1]] += 500
		if _, err := m.Solve(scratch, 25); err != nil {
			b.Fatal(err)
		}
		scratch[mv[0]] += 500
		scratch[mv[1]] -= 500
	}
}

// BenchmarkFlowBuildThermal measures the complete cold-cache build with
// thermal-aware placement enabled — the kernel build, the per-move pricing,
// and the periodic renormalization all included, against BenchmarkFlowBuild
// as the thermally-oblivious baseline.
func BenchmarkFlowBuildThermal(b *testing.B) {
	f := frontendSetup(b)
	opts := f.opts
	opts.ThermalPlace = flow.ThermalPlace{Weight: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Implement(f.nl, f.dev, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowBuildCached measures the warm-cache path: place and route are
// served from the in-memory flow cache, leaving only activity estimation,
// packing, grid construction, restore, and model assembly.
func BenchmarkFlowBuildCached(b *testing.B) {
	f := frontendSetup(b)
	opts := f.opts
	opts.Cache = flow.NewCache("")
	if _, err := flow.Implement(f.nl, f.dev, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im, err := flow.Implement(f.nl, f.dev, opts)
		if err != nil {
			b.Fatal(err)
		}
		if im.Routed.Graph != nil {
			b.Fatal("warm iteration missed the cache")
		}
	}
}
