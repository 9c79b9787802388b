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
//	-scale f      benchmark scale (default 1/16 of the published size)
//	-corner f     device sizing corner in °C (default 25)
//	-ambient f    ambient temperature for guardbanding, in [-55, 150] (default 25)
//	-w n          router channel-width override (0 = Table I's 320)
//	-route-workers n  deprecated: ignored, routing is serial
//	-effort f     placement effort (default 1.0)
//	-seed n       random seed override (default: derived from the name)
//	-blif path    write the generated netlist as BLIF to path
//	-sweep spec   guardband an ambient sweep instead of one point:
//	              "lo:hi:step" (e.g. 0:100:10) or a comma list (e.g. 25,45,70),
//	              at most 256 points
//	-objective s  guardband objective (default "fmax"): "min-energy" keeps
//	              the clock at -target and instead bisects the minimum safe
//	              core rail on the same routed implementation, converting the
//	              recovered thermal margin into supply/energy savings
//	-target f     min-energy iso-frequency target in MHz (0 = the
//	              conventional Tworst=100°C baseline clock, i.e. the
//	              frequency a thermally-oblivious flow would have shipped)
//	-parallel n   sweep workers (0 = GOMAXPROCS, 1 = serial)
//	-sweep-batch n  run the sweep's ambients in lockstep batches of n lanes
//	              through the batched guardband engine (0/1 = serial workers);
//	              per-lane results are bit-identical to the serial sweep
//	-timeout d    abort after this duration (0 = none); a sweep still prints
//	              the rows that finished
//	-thermal-weight f  weight of the thermal term in the placement objective
//	              (0 = off, today's thermally-oblivious placer); with a
//	              positive weight the annealer trades wirelength for a
//	              flatter on-die temperature profile
//	-thermal-radius n  thermal influence kernel truncation radius in tiles
//	              (0 = the estimator default)
//	-flowcache d  cache place-and-route results in directory d, keyed by
//	              netlist/arch/seed/effort/router content (and the thermal
//	              placement knobs when enabled), so repeated invocations
//	              skip the implementation front-end
//	-cpuprofile f write a CPU profile of the run to f (go tool pprof)
//	-memprofile f write a heap profile at exit to f
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"tafpga"
	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/netlist"
	"tafpga/internal/sta"
)

func main() {
	list := flag.Bool("list", false, "list benchmarks")
	scale := flag.Float64("scale", bench.DefaultScale, "benchmark scale")
	corner := flag.Float64("corner", 25, "device sizing corner °C")
	ambient := flag.Float64("ambient", 25, "ambient temperature °C")
	width := flag.Int("w", 0, "router channel-width override")
	flag.Int("route-workers", 0, "deprecated: ignored, routing is serial")
	effort := flag.Float64("effort", 1.0, "placement effort")
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
	flowcache := flag.String("flowcache", "", "directory for the on-disk place-and-route cache (reused across runs)")
	parallel := flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = serial)")
	sweepBatch := flag.Int("sweep-batch", 0, "lockstep lanes per batched guardband dispatch; bit-identical per lane (0/1 = serial)")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = none)")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write heap profile to file at exit")
	flag.Parse()

	// SIGINT/SIGTERM (and -timeout) cancel the flow and Algorithm 1 at
	// their next stage or iteration boundary; a sweep still prints the
	// ambients that finished.
	runCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		die(err)
		die(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tafpga:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tafpga:", err)
			}
		}()
	}

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

	// Validate the sweep spec, its ambients and the objective up front: a
	// typo must not cost a sizing run.
	ambients := []float64{*ambient}
	if *sweep != "" {
		var err error
		ambients, err = parseSweep(*sweep)
		die(err)
	}
	for _, a := range ambients {
		die(guardband.CheckAmbient(a))
	}
	if *objective != "fmax" && *objective != "min-energy" {
		fmt.Fprintf(os.Stderr, "tafpga: unknown objective %q (want fmax or min-energy)\n", *objective)
		os.Exit(2)
	}

	cfg := tafpga.NewConfig()
	if *vdd > 0 {
		var err error
		cfg, err = cfg.AtVdd(*vdd)
		die(err)
		fmt.Printf("core rail set to %.2f V\n", *vdd)
	}
	fmt.Printf("sizing device for %.0f°C…\n", *corner)
	dev, err := cfg.SizeDevice(*corner)
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
		nl, err = tafpga.GenerateBenchmark(name, *scale)
		die(err)
		fmt.Printf("%s @ scale %.4g: %v\n", name, *scale, nl.Stats())
	}

	if *blifOut != "" {
		f, err := os.Create(*blifOut)
		die(err)
		die(nl.WriteBLIF(f))
		die(f.Close())
		fmt.Println("wrote", *blifOut)
	}

	opts := flow.DefaultOptions()
	opts.ChannelTracks = *width
	opts.PlaceEffort = *effort
	opts.ThermalPlace = flow.ThermalPlace{Weight: *thermalWeight, KernelRadius: *thermalRadius}
	if *seed != 0 {
		opts.Seed = *seed
	} else {
		opts.Seed = bench.SeedFor(name)
	}
	if *flowcache != "" {
		opts.Cache = flow.NewCache(*flowcache)
	}
	opts.Ctx = runCtx
	im, err := tafpga.Implement(nl, dev, opts)
	die(err)
	if im.Routed.Graph != nil {
		fmt.Printf("implemented on %s (router: %d iterations, %d reroutes, %s)\n",
			im.Grid, im.Routed.Iters, im.Routed.Reroutes, im.Routed.Graph)
	} else {
		fmt.Printf("implemented on %s (router: %d iterations, from flow cache)\n", im.Grid, im.Routed.Iters)
	}

	if *objective == "min-energy" {
		runMinEnergy(runCtx, im, ambients, *target)
		return
	}

	if *sweep != "" {
		if *sweepBatch > 1 {
			runSweepBatch(runCtx, im, ambients, *sweepBatch)
		} else {
			runSweep(runCtx, im, ambients, *parallel)
		}
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

// maxSweepPoints caps a sweep at the per-job ambient limit that
// jobs.Spec.Validate applies.
const maxSweepPoints = 256

// parseSweep parses "lo:hi:step" or a comma-separated list of ambients.
// Range points are lo + i·step, so a step below the float spacing at lo
// cannot stall the sweep; non-finite values and sweeps of more than
// maxSweepPoints points are errors.
func parseSweep(spec string) ([]float64, error) {
	isRange := strings.Contains(spec, ":")
	sep := ","
	if isRange {
		sep = ":"
	}
	parts := strings.Split(spec, sep)
	if isRange && len(parts) != 3 {
		return nil, fmt.Errorf("sweep spec %q: want lo:hi:step", spec)
	}
	var out []float64
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("sweep spec %q: %w", spec, err)
		}
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, fmt.Errorf("sweep spec %q: %q is not finite", spec, p)
		}
		out = append(out, f)
	}
	if isRange {
		lo, hi, step := out[0], out[1], out[2]
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("sweep spec %q: need hi >= lo and step > 0", spec)
		}
		out = nil
		for i := 0; lo+float64(i)*step <= hi+1e-9 && len(out) <= maxSweepPoints; i++ {
			out = append(out, lo+float64(i)*step)
		}
	}
	if len(out) > maxSweepPoints {
		return nil, fmt.Errorf("sweep spec %q: more than %d points", spec, maxSweepPoints)
	}
	return out, nil
}

// runSweep guardbands the implementation at every ambient on a bounded
// worker pool (Algorithm 1 only reads the implementation, so the runs are
// independent) and prints the table in sweep order. Cancellation stops the
// claim loop; finished rows still print, unfinished ones report the error.
func runSweep(ctx context.Context, im *flow.Implementation, ambients []float64, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ambients) {
		workers = len(ambients)
	}
	results := make([]*guardband.Result, len(ambients))
	errs := make([]error, len(ambients))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(ambients) || ctx.Err() != nil {
					return
				}
				o := tafpga.GuardbandOptions(ambients[i])
				o.Ctx = ctx
				results[i], errs[i] = im.Guardband(o)
			}
		}()
	}
	wg.Wait()

	fmt.Printf("\nThermal-aware guardbanding ambient sweep (%d workers):\n", workers)
	fmt.Printf("%10s %12s %12s %8s %7s %8s %9s\n", "Tamb(C)", "fmax(MHz)", "worst(MHz)", "gain(%)", "iters", "rise(C)", "converged")
	var agg guardband.Stats
	for i, amb := range ambients {
		if errs[i] != nil {
			fmt.Printf("%10.1f  error: %v\n", amb, errs[i])
			continue
		}
		if results[i] == nil { // claimed out by cancellation before running
			fmt.Printf("%10.1f  not run: %v\n", amb, ctx.Err())
			continue
		}
		r := results[i]
		agg.Add(r.Stats)
		fmt.Printf("%10.1f %12.1f %12.1f %8.1f %7d %8.2f %9t\n",
			amb, r.FmaxMHz, r.BaselineMHz, r.GainPct, r.Iterations, r.RiseC, r.Converged)
	}
	fmt.Printf("kernels: %s\n", agg)
}

// runSweepBatch guardbands the ambients in lockstep chunks of batch lanes
// through guardband.RunBatch. Every row is bit-identical to runSweep's;
// only wall time and the kernel accounting (batch counters included)
// change. A chunk error still prints the completed rows.
func runSweepBatch(ctx context.Context, im *flow.Implementation, ambients []float64, batch int) {
	fmt.Printf("\nThermal-aware guardbanding ambient sweep (batch %d):\n", batch)
	fmt.Printf("%10s %12s %12s %8s %7s %8s %9s\n", "Tamb(C)", "fmax(MHz)", "worst(MHz)", "gain(%)", "iters", "rise(C)", "converged")
	var agg guardband.Stats
	var failed error
	for lo := 0; lo < len(ambients) && failed == nil; lo += batch {
		hi := min(lo+batch, len(ambients))
		o := tafpga.GuardbandOptions(ambients[lo])
		o.Ctx = ctx
		rs, err := im.GuardbandBatch(ambients[lo:hi], o)
		if err != nil {
			failed = err
			break
		}
		for i, r := range rs {
			agg.Add(r.Stats)
			fmt.Printf("%10.1f %12.1f %12.1f %8.1f %7d %8.2f %9t\n",
				ambients[lo+i], r.FmaxMHz, r.BaselineMHz, r.GainPct, r.Iterations, r.RiseC, r.Converged)
		}
	}
	if failed != nil {
		fmt.Printf("  error: %v\n", failed)
	}
	fmt.Printf("kernels: %s\n", agg)
}

// runMinEnergy runs the min-energy guardband objective: per ambient, bisect
// the minimum safe core rail that still meets the iso-frequency target
// (0 = that run's conventional worst-case clock) on the same routed
// implementation. One VddLab shares every per-rail model derivation across
// ambients. A single ambient streams the probe-by-probe search; a -sweep
// prints one row per ambient.
func runMinEnergy(ctx context.Context, im *flow.Implementation, ambients []float64, targetMHz float64) {
	lab := flow.NewVddLab(im)
	single := len(ambients) == 1
	if !single {
		label := "per-ambient worst-case baseline"
		if targetMHz > 0 {
			label = fmt.Sprintf("%.1f MHz", targetMHz)
		}
		fmt.Printf("\nMin-energy guardbanding ambient sweep (target %s):\n", label)
		fmt.Printf("%10s %12s %9s %9s %12s %12s %8s %8s %7s\n",
			"Tamb(C)", "target(MHz)", "Vnom(V)", "Vmin(V)", "Pnom(uW)", "Pmin(uW)", "save(%)", "pJ/cyc", "probes")
	}
	var agg guardband.Stats
	for _, amb := range ambients {
		opts := guardband.DefaultEnergyOptions(amb)
		opts.Ctx = ctx
		opts.TargetMHz = targetMHz
		if single {
			fmt.Printf("\nMin-energy guardbanding at Tamb = %.0f°C (bisecting the core rail):\n", amb)
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
		}
		res, err := lab.MinEnergy(opts)
		if err != nil {
			if single {
				die(err)
			}
			fmt.Printf("%10.1f  error: %v\n", amb, err)
			continue
		}
		agg.Add(res.Stats)
		if !single {
			fmt.Printf("%10.1f %12.1f %9.3f %9.3f %12.1f %12.1f %8.1f %8.2f %7d",
				amb, res.TargetMHz, res.NominalVddV, res.MinVddV,
				res.NominalPowerUW, res.PowerUW, res.SavingsPct, res.EnergyPJ, res.Probes)
			if !res.Feasible {
				fmt.Print("  [INFEASIBLE]")
			}
			if !res.Converged {
				fmt.Print("  [UNCONVERGED]")
			}
			fmt.Println()
			continue
		}
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
	}
	fmt.Printf("kernels: %s\n", agg)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tafpga:", err)
		os.Exit(1)
	}
}
