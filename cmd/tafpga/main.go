// Command tafpga runs the thermal-aware CAD flow on one benchmark:
//
//	tafpga [flags] <benchmark>
//	tafpga -list
//
// It sizes (or reuses) a device for the requested corner, implements the
// design (pack → place → route), runs the paper's Algorithm 1 guardbanding
// at the given ambient temperature, and reports the thermally-aware clock
// against the conventional worst-case baseline, the converged thermal map
// statistics, and the critical-path composition.
//
// Flags:
//
//	-list         list the available benchmarks and their profiles
//	-corner f     device sizing corner in °C (default 25)
//	-vdd v        core supply override in volts (0 = Table I's 0.8 V)
//	-ambient f    guardbanding ambient in [-55, 150] °C (default 25)
//	-sweep spec   guardband an ambient axis instead: "lo:hi:step" or a
//	              comma list, at most 256 points; one table row per
//	              ambient, the same at any -parallel
//	-objective s  "fmax" (default), or "min-energy": hold the clock at
//	              -target and bisect the minimum safe core rail instead
//	              (with -sweep: taexp's energysweep table for this design,
//	              ambients in sequence)
//	-target f     min-energy target in MHz (0 = the Tworst=100°C clock)
//	-seed n       random seed override (default: derived from the name)
//	-in path      implement this BLIF file (flow defaults, seeded from the
//	              name "external") instead of a named benchmark
//	-blif path    write the generated netlist as BLIF to path
//	-paths n      also report the n worst timing endpoints
//	-power        also report the power breakdown at the converged point
//	-thermal-weight f  thermal term of the placement objective (0 = off)
//	-thermal-radius n  thermal kernel truncation radius in tiles
//	              (0 = the estimator default)
//	-route-workers n  deprecated: ignored, routing is serial
//
// Flags defined once in internal/cli, meaning the same in taexp (all of
// them) and tafpgad (the first five):
//
//	-scale f      benchmark scale (default 1/16 of the published size)
//	-w n          router channel-width override (0 = Table I's 320)
//	-effort f     placement effort (default 1.0)
//	-parallel n   workers over the ambients of an fmax -sweep
//	              (0 = GOMAXPROCS, 1 = serial)
//	-flowcache d  reuse place-and-route results across runs from directory d
//	-timeout d    abort after this duration (0 = none); a sweep still prints
//	              the rows that finished before the first unfinished one,
//	              then exits 1
//	-cpuprofile f write a CPU profile of the run to f (go tool pprof)
//	-memprofile f write a heap profile at exit to f
//
// A named benchmark is built with the flow options taexp and tafpgad use
// for it (tafpga.BenchmarkFlowOptions), so the three report the same
// numbers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"tafpga"
	"tafpga/internal/bench"
	"tafpga/internal/cli"
	"tafpga/internal/coffe"
	"tafpga/internal/experiments"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/jobs"
	"tafpga/internal/netlist"
	"tafpga/internal/sta"
)

func main() {
	list := flag.Bool("list", false, "list benchmarks")
	corner := flag.Float64("corner", 25, "device sizing corner °C")
	ambient := flag.Float64("ambient", 25, "ambient temperature °C")
	flag.Int("route-workers", 0, "deprecated: ignored, routing is serial")
	seed := flag.Int64("seed", 0, "seed override")
	blifOut := flag.String("blif", "", "write generated netlist as BLIF")
	blifIn := flag.String("in", "", "implement this BLIF file instead of a generated benchmark")
	vdd := flag.Float64("vdd", 0, "core supply override in volts (0 = Table I's 0.8 V)")
	paths := flag.Int("paths", 0, "report the N worst timing endpoints")
	powerRep := flag.Bool("power", false, "report the power breakdown at the converged operating point")
	thermalWeight := flag.Float64("thermal-weight", 0, "thermal placement objective weight (0 = off)")
	thermalRadius := flag.Int("thermal-radius", 0, "thermal kernel truncation radius in tiles (0 = default)")
	sweep := flag.String("sweep", "", `ambient sweep: "lo:hi:step" or comma list of °C`)
	objective := flag.String("objective", "fmax", `guardband objective: "fmax" or "min-energy"`)
	target := flag.Float64("target", 0, "min-energy iso-frequency target in MHz (0 = worst-case baseline clock)")
	cfg := cli.RunFlags(false)
	proc := cli.ProcessFlags("tafpga")
	flag.Parse()

	// SIGINT/SIGTERM (and -timeout) cancel the flow and Algorithm 1 at
	// their next stage or iteration boundary; a sweep still prints the
	// ambients that finished before the first unfinished one.
	runCtx, stop := proc.Start()
	defer stop()

	if *list {
		fmt.Println("benchmark           LUTs    FFs  BRAMs  DSPs  depth")
		for _, p := range tafpga.Benchmarks() {
			fmt.Printf("%-18s %6d %6d %6d %5d %6d\n", p.Name, p.LUTs, p.FFs, p.BRAMs, p.DSPs, p.Depth)
		}
		return
	}
	if flag.NArg() != 1 && *blifIn == "" {
		fmt.Fprintln(os.Stderr, "usage: tafpga [flags] <benchmark>   (see -list; or -in design.blif)")
		os.Exit(2)
	}
	name := "external"
	if *blifIn == "" {
		name = flag.Arg(0)
	}

	// Validate the sweep spec, its ambients, the objective and the
	// benchmark name up front: a typo must not cost a sizing run.
	ambients := []float64{*ambient}
	var err error
	if *sweep != "" {
		ambients, err = guardband.ParseAmbients(*sweep)
	} else {
		err = guardband.CheckAmbient(*ambient)
	}
	die(err)
	if *objective != "fmax" && *objective != "min-energy" {
		fmt.Fprintf(os.Stderr, "tafpga: unknown objective %q (want fmax or min-energy)\n", *objective)
		os.Exit(2)
	}
	opts, err := flowOptions(name, *blifIn == "", cfg, *seed, flow.ThermalPlace{Weight: *thermalWeight, KernelRadius: *thermalRadius})
	die(err)
	opts.Ctx = runCtx

	dcfg := tafpga.NewConfig()
	if *vdd > 0 {
		dcfg, err = dcfg.AtVdd(*vdd)
		die(err)
		fmt.Printf("core rail set to %.2f V\n", *vdd)
	}
	fmt.Printf("sizing device for %.0f°C…\n", *corner)
	dev, err := dcfg.SizeDevice(*corner)
	die(err)

	var nl *tafpga.Netlist
	if *blifIn != "" {
		f, err := os.Open(*blifIn)
		die(err)
		nl, err = netlist.ParseBLIF(f)
		die(err)
		die(f.Close())
		fmt.Printf("%s (from %s): %v\n", nl.Name, *blifIn, nl.Stats())
	} else {
		nl, err = tafpga.GenerateBenchmark(name, cfg.Scale)
		die(err)
		fmt.Printf("%s @ scale %.4g: %v\n", name, cfg.Scale, nl.Stats())
	}

	if *blifOut != "" {
		f, err := os.Create(*blifOut)
		die(err)
		die(nl.WriteBLIF(f))
		die(f.Close())
		fmt.Println("wrote", *blifOut)
	}

	im, err := tafpga.Implement(nl, dev, opts)
	die(err)
	if im.Routed.Graph != nil {
		fmt.Printf("implemented on %s (router: %d iterations, %d reroutes, %s)\n",
			im.Grid, im.Routed.Iters, im.Routed.Reroutes, im.Routed.Graph)
	} else {
		fmt.Printf("implemented on %s (router: %d iterations, from flow cache)\n", im.Grid, im.Routed.Iters)
	}

	if *sweep != "" {
		c := &experiments.Context{Workers: cfg.BenchWorkers, Ctx: runCtx}
		if *objective == "min-energy" {
			rows, err := c.EnergyOn(im, name, ambients, *target)
			label := "per-ambient worst-case baseline"
			if *target > 0 {
				label = fmt.Sprintf("%.1f MHz", *target)
			}
			fmt.Print("\n" + experiments.FormatEnergySweep(fmt.Sprintf("Min-energy guardbanding ambient sweep (target %s):", label), rows))
			var agg guardband.Stats
			for _, r := range rows {
				agg.Add(r.Stats)
			}
			fmt.Printf("kernels: %s\n", agg)
			die(err)
			return
		}
		rs, err := c.SweepOn(im, name, ambients)
		fmt.Println("\nThermal-aware guardbanding ambient sweep:")
		fmt.Printf("%10s %12s %12s %8s %7s %8s %9s\n", "Tamb(C)", "fmax(MHz)", "worst(MHz)", "gain(%)", "iters", "rise(C)", "converged")
		for i, r := range rs {
			fmt.Printf("%10.1f %12.1f %12.1f %8.1f %7d %8.2f %9t\n",
				ambients[i], r.FmaxMHz, r.BaselineMHz, r.GainPct, r.Iterations, r.RiseC, r.Converged)
		}
		fmt.Printf("kernels: %s\n", experiments.SumStats(rs))
		die(err)
		return
	}

	if *objective == "min-energy" {
		runMinEnergy(runCtx, im, *ambient, *target)
		return
	}

	gbOpts := tafpga.GuardbandOptions(*ambient)
	gbOpts.Ctx = runCtx
	res, err := im.Guardband(gbOpts)
	die(err)

	fmt.Printf("\nThermal-aware guardbanding at Tamb = %.0f°C (Algorithm 1):\n", *ambient)
	fmt.Printf("  fmax (thermal-aware)  %8.1f MHz\n", res.FmaxMHz)
	fmt.Printf("  fmax (Tworst=100°C)   %8.1f MHz\n", res.BaselineMHz)
	fmt.Printf("  improvement           %8.1f %%\n", res.GainPct)
	fmt.Printf("  converged in          %8d iterations\n", res.Iterations)
	fmt.Printf("  mean rise / spread    %8.2f / %.2f °C\n", res.RiseC, res.SpreadC)
	fmt.Printf("  kernels               %s\n", res.Stats)
	if !res.Converged {
		fmt.Println("  WARNING: iteration budget exhausted before the temperature map settled;")
		fmt.Println("           the figures above are the last iterate, not a converged point")
	}

	fmt.Println("\nCritical-path composition at the converged corner (ps):")
	kinds := make([]coffe.ResourceKind, 0, len(res.Breakdown))
	for k := range res.Breakdown {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Printf("  %-12s %8.1f\n", k, res.Breakdown[k])
	}

	if *paths > 0 {
		fmt.Printf("\nWorst %d timing endpoints at the converged corner:\n", *paths)
		fmt.Print(sta.FormatPaths(im.Timing.TopPaths(res.Temps, *paths)))
	}

	if *powerRep {
		b := im.Power.Report(res.FmaxMHz, res.Temps)
		fmt.Printf("\nPower at %.1f MHz, converged temperatures (µW):\n", res.FmaxMHz)
		fmt.Printf("  logic dynamic      %10.1f\n", b.DynLogicUW)
		fmt.Printf("  routing dynamic    %10.1f\n", b.DynRoutingUW)
		fmt.Printf("  macro dynamic      %10.1f\n", b.DynMacroUW)
		fmt.Printf("  clocking           %10.1f\n", b.DynClockingUW)
		fmt.Printf("  leakage            %10.1f\n", b.LeakUW)
		fmt.Printf("  total              %10.1f\n", b.TotalUW())
	}
}

// flowOptions is the flow recipe of a tafpga run. A named benchmark starts
// from the one taexp and tafpgad build it with (tafpga.BenchmarkFlowOptions),
// an -in netlist from the flow defaults; -seed, -w, -effort, -flowcache and
// the thermal placement flags override either.
func flowOptions(name string, named bool, cfg *jobs.RunnerConfig, seed int64, tp flow.ThermalPlace) (flow.Options, error) {
	opts := flow.DefaultOptions()
	opts.Seed = bench.SeedFor(name)
	if named {
		var err error
		if opts, err = tafpga.BenchmarkFlowOptions(name); err != nil {
			return opts, err
		}
	}
	if seed != 0 {
		opts.Seed = seed
	}
	opts.ChannelTracks = cfg.ChannelTracks
	opts.PlaceEffort = cfg.PlaceEffort
	opts.ThermalPlace = tp
	if cfg.FlowCacheDir != "" {
		opts.Cache = flow.NewCache(cfg.FlowCacheDir)
	}
	return opts, nil
}

// runMinEnergy runs the min-energy guardband objective at one ambient:
// bisect the minimum safe core rail that still meets the iso-frequency
// target (0 = the conventional worst-case clock) on the routed
// implementation, streaming the search probe by probe.
func runMinEnergy(ctx context.Context, im *flow.Implementation, ambientC, targetMHz float64) {
	opts := guardband.DefaultEnergyOptions(ambientC)
	opts.Ctx = ctx
	opts.TargetMHz = targetMHz
	fmt.Printf("\nMin-energy guardbanding at Tamb = %.0f°C (bisecting the core rail):\n", ambientC)
	opts.OnProbe = func(p guardband.EnergyProbe) {
		if p.NonConducting {
			fmt.Printf("  probe %2d  %.3f V  non-conducting at this corner (cold search bound)\n", p.Probe, p.VddV)
			return
		}
		verdict := "infeasible"
		if p.Feasible {
			verdict = "feasible"
		}
		fmt.Printf("  probe %2d  %.3f V  fmax %8.1f MHz  %10.1f µW  %-10s (%d iters)\n",
			p.Probe, p.VddV, p.FmaxMHz, p.PowerUW, verdict, p.Iterations)
	}
	res, err := flow.NewVddLab(im).MinEnergy(opts)
	die(err)
	fmt.Printf("\n  target frequency      %8.1f MHz", res.TargetMHz)
	if targetMHz <= 0 {
		fmt.Print("   (= conventional Tworst=100°C clock)")
	}
	fmt.Println()
	if !res.Feasible {
		fmt.Printf("  INFEASIBLE: the nominal %.3f V rail clocks only %.1f MHz at this ambient;\n",
			res.NominalVddV, res.FmaxMHz)
		fmt.Println("              the figures below are the nominal operating point, not a savings")
	}
	fmt.Printf("  min safe Vdd          %8.3f V   (nominal %.3f V)\n", res.MinVddV, res.NominalVddV)
	fmt.Printf("  power at target       %10.1f µW  (nominal %.1f µW)\n", res.PowerUW, res.NominalPowerUW)
	fmt.Printf("  energy per cycle      %10.2f pJ  (nominal %.2f pJ)\n", res.EnergyPJ, res.NominalEnergyPJ)
	fmt.Printf("  iso-frequency saving  %8.1f %%\n", res.SavingsPct)
	fmt.Printf("  timing headroom       %8.1f MHz at the min rail\n", res.FmaxMHz)
	fmt.Printf("  probes / iterations   %8d / %d\n", res.Probes, res.Iterations)
	fmt.Printf("  mean rise             %8.2f °C\n", res.RiseC)
	if !res.Converged {
		fmt.Println("  WARNING: the winning probe exhausted its iteration budget before the")
		fmt.Println("           temperature map settled; its figures are the last iterate")
	}
	fmt.Printf("kernels: %s\n", res.Stats)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tafpga:", err)
		os.Exit(1)
	}
}
