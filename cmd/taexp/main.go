// Command taexp regenerates every table and figure of the paper's
// evaluation from the reimplemented flow. Run it with no arguments to
// reproduce the full set, or name specific experiments:
//
//	taexp [flags] [fig1 fig2 fig3 table1 table2 fig6 fig7 fig8 ablations scorecard]
//
// The additional "fig8sweep" experiment (not in the default set) extends
// Fig. 8 along the 0–100 °C ambient axis per benchmark.
// The additional "thermalcompare" experiment (also not in the default set)
// takes every benchmark through the full Algorithm-1 guardband twice —
// thermally-oblivious vs thermal-aware placement under -thermal-weight /
// -thermal-radius — and reports the ΔT_peak / Δf_guardband table.
// The additional "energysweep" experiment (also not in the default set)
// runs the min-energy guardband objective per benchmark and ambient
// (-energy-ambients): instead of raising the clock, the recovered thermal
// margin is spent lowering the core rail at iso-frequency (-target, 0 =
// each benchmark's own conventional worst-case clock), and the table
// reports the minimum safe Vdd plus the power and energy-per-cycle saving.
//
// Flags:
//
//	-csv dir    also write machine-readable CSVs into dir
//	-thermal-weight f  thermal objective weight for thermalcompare (default 0.25)
//	-thermal-radius n  thermal kernel truncation radius in tiles for
//	            thermalcompare (0 = the estimator default)
//	-thermal-ambient f  guardbanding ambient °C for thermalcompare (default 25)
//	-energy-ambients spec  ambient axis for energysweep: "lo:hi:step" or a
//	            comma list, at most 256 points (default 25,70)
//	-target f   iso-frequency target in MHz for energysweep (0 = each
//	            benchmark's conventional worst-case clock)
//
// Every ambient is checked before the first experiment runs.
//
// Flags defined once in internal/cli, meaning the same in tafpga and (the
// first six) tafpgad:
//
//	-scale f    benchmark scale relative to the published sizes (default 1/16)
//	-w n        router channel-width override (default: Table I's 320)
//	-effort f   placement effort (default 1.0)
//	-bench csv  restrict Fig. 6/7/8 to a comma-separated benchmark list
//	-parallel n fan-out workers over the benchmarks, or over fig8sweep's
//	            ambients (0 = GOMAXPROCS, 1 = serial)
//	-flowcache d   cache place-and-route results in directory d so repeated
//	               invocations skip the implementation front-end
//	-timeout d  abort after this duration (0 = none); benchmark-suite
//	            experiments still print and write the CSV rows that finished
//	-cpuprofile f  write a CPU profile of the run to f (go tool pprof)
//	-memprofile f  write a heap profile at exit to f
//
// Experiment results go to stdout; timing lines (per-benchmark wall time,
// per-experiment totals, the parallel speedup, and the Algorithm-1 kernel
// accounting) go to stderr, so stdout is byte-identical for any -parallel
// value and for any solver configuration.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tafpga/internal/cli"
	"tafpga/internal/experiments"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/jobs"
)

func main() {
	csvDir := flag.String("csv", "", "also write machine-readable CSVs into this directory")
	thermalWeight := flag.Float64("thermal-weight", 0.25, "thermal objective weight for the thermalcompare experiment")
	thermalRadius := flag.Int("thermal-radius", 0, "thermal kernel truncation radius in tiles (0 = default)")
	thermalAmbient := flag.Float64("thermal-ambient", 25, "guardbanding ambient °C for the thermalcompare experiment")
	energyAmbients := flag.String("energy-ambients", "25,70", `ambient axis for the energysweep experiment: "lo:hi:step" or comma list of °C`)
	targetMHz := flag.Float64("target", 0, "iso-frequency target in MHz for the energysweep experiment (0 = each benchmark's worst-case baseline)")
	cfg := cli.RunFlags(true)
	proc := cli.ProcessFlags("taexp")
	flag.Parse()

	// SIGINT/SIGTERM (and -timeout) cancel benchmark runs at the next flow
	// stage or Algorithm-1 iteration; suite experiments still flush the
	// benchmarks that finished before exiting non-zero.
	runCtx, stop := proc.Start()
	defer stop()

	// Every ambient is checked before the first experiment: a bad axis
	// must not cost the experiments named before the one that reads it.
	ambients, err := guardband.ParseAmbients(*energyAmbients)
	if err == nil {
		err = guardband.CheckAmbient(*thermalAmbient)
	}
	if err == nil && *csvDir != "" {
		err = os.MkdirAll(*csvDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "taexp:", err)
		os.Exit(1)
	}

	ctx := jobs.NewRunner(*cfg).Context(runCtx, nil)
	// Without -flowcache there is nothing to reuse: the context already
	// builds each variant once, so a memory-only cache would only hold a
	// second copy of every route.
	if cfg.FlowCacheDir == "" {
		ctx.FlowCache = nil
	}

	// Per-benchmark wall times, drained after each experiment. The pool
	// serializes callback invocations.
	type benchTime struct {
		name string
		d    time.Duration
	}
	var times []benchTime
	ctx.OnBenchDone = func(name string, d time.Duration) {
		times = append(times, benchTime{name, d})
	}

	wanted := flag.Args()
	if len(wanted) == 0 {
		wanted = []string{"fig1", "fig2", "fig3", "table1", "table2", "fig6", "fig7", "fig8", "ablations", "scorecard"}
	}
	tp := flow.ThermalPlace{Weight: *thermalWeight, KernelRadius: *thermalRadius}
	for _, name := range wanted {
		start := time.Now()
		if err := run(ctx, name, *csvDir, tp, *thermalAmbient, ambients, *targetMHz); err != nil {
			fmt.Fprintf(os.Stderr, "taexp: %s: %v\n", name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		if len(times) > 0 {
			var serialEq time.Duration
			for _, bt := range times {
				serialEq += bt.d
				fmt.Fprintf(os.Stderr, "  [%s: %-18s %v]\n", name, bt.name, bt.d.Round(time.Millisecond))
			}
			fmt.Fprintf(os.Stderr, "[%s: %d benchmark runs, serial-equivalent %v, wall %v, speedup %.2fx]\n",
				name, len(times), serialEq.Round(time.Millisecond), wall.Round(time.Millisecond),
				serialEq.Seconds()/wall.Seconds())
			times = times[:0]
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, wall.Round(time.Millisecond))
		fmt.Println()
	}
}

func run(ctx *experiments.Context, name, csvDir string, tp flow.ThermalPlace, thermalAmbient float64, energyAmbients []float64, targetMHz float64) error {
	warnUnconverged := func(rs []experiments.BenchResult) {
		if un := experiments.Unconverged(rs); len(un) > 0 {
			fmt.Fprintf(os.Stderr, "taexp: warning: %s: Algorithm 1 exhausted its iteration budget on: %s\n",
				name, strings.Join(un, ", "))
		}
		// Kernel accounting goes to stderr with the other timing lines.
		fmt.Fprintf(os.Stderr, "[%s kernels: %s]\n", name, experiments.SumStats(rs))
	}
	csvOut := func(file string, write func(io.Writer) error) error {
		if csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(csvDir, file))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	switch name {
	case "fig1":
		ss, err := ctx.Fig1()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSeries("Fig. 1: delay increase vs 0C (%) — paper: CP +47%, DSP up to +84% at 100C", ss, "%.1f%%"))
		if err := csvOut("fig1.csv", func(w io.Writer) error { return experiments.WriteSeriesCSV(w, ss) }); err != nil {
			return err
		}
	case "fig2":
		rows, err := ctx.Fig2()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig2(rows))
		fmt.Println("paper: every device fastest at its own corner; BRAM most corner-sensitive")
		if err := csvOut("fig2.csv", func(w io.Writer) error { return experiments.WriteFig2CSV(w, rows) }); err != nil {
			return err
		}
	case "fig3":
		ss, err := ctx.Fig3()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSeries("Fig. 3: representative CP delay (ps) vs T — paper: D0 best at 0C (+6.3% over D100), D100 best at 100C (+9.0%), D25 optimal in [20,65]C", ss, "%.1f"))
		if err := csvOut("fig3.csv", func(w io.Writer) error { return experiments.WriteSeriesCSV(w, ss) }); err != nil {
			return err
		}
	case "table1":
		fmt.Println("Table I: architectural parameters")
		fmt.Print(ctx.Table1())
	case "table2":
		chars, err := ctx.Table2()
		if err != nil {
			return err
		}
		fmt.Println("Table II: area (um2) | delay (ps, a+bT) | Pdyn (uW @100MHz, a=1) | Plkg (uW)")
		for _, ch := range chars {
			fmt.Println(ch)
		}
		if err := csvOut("table2.csv", func(w io.Writer) error { return experiments.WriteTable2CSV(w, chars) }); err != nil {
			return err
		}
	case "fig6":
		return benchSuite(ctx.Fig6, "Fig. 6: guardbanding gain at Tamb=25C — paper average 36.5%", "fig6.csv", warnUnconverged, csvOut)
	case "fig7":
		return benchSuite(ctx.Fig7, "Fig. 7: guardbanding gain at Tamb=70C — paper average 14%", "fig7.csv", warnUnconverged, csvOut)
	case "fig8":
		return benchSuite(ctx.Fig8, "Fig. 8: 70C-optimized fabric vs typical at Tamb=70C (both guardbanded) — paper average 6.7%", "fig8.csv", warnUnconverged, csvOut)
	case "fig8sweep":
		// Fig. 8 along the ambient axis: each benchmark's D70-over-D25
		// gain at every ambient, one table per benchmark.
		ambients := make([]float64, 0, 11)
		for t := 0.0; t <= 100; t += 10 {
			ambients = append(ambients, t)
		}
		for _, b := range ctx.Suite() {
			rs, err := ctx.Fig8Sweep(b, ambients)
			if len(rs) > 0 {
				fmt.Print(experiments.FormatBench(
					fmt.Sprintf("Fig. 8 ambient sweep: %s (D70 fabric vs D25, both guardbanded)", b), rs))
				warnUnconverged(rs)
				if cerr := csvOut("fig8sweep_"+b+".csv", func(w io.Writer) error {
					return experiments.WriteBenchCSV(w, rs)
				}); cerr != nil && err == nil {
					err = cerr
				}
			}
			if err != nil {
				return err
			}
		}
	case "thermalcompare":
		rs, err := ctx.ThermalPlaceCompare(thermalAmbient, tp)
		if len(rs) == 0 {
			return err
		}
		title := fmt.Sprintf("Thermal-aware placement vs baseline at Tamb=%.0fC (weight %g)", thermalAmbient, tp.Weight)
		if err != nil {
			title += fmt.Sprintf(" [PARTIAL: %d benchmark(s) finished]", len(rs))
		}
		fmt.Print(experiments.FormatThermalCompare(title, rs))
		if cerr := csvOut("thermalcompare.csv", func(w io.Writer) error {
			return experiments.WriteThermalCompareCSV(w, rs)
		}); cerr != nil && err == nil {
			err = cerr
		}
		return err
	case "energysweep":
		rs, err := ctx.EnergySweep(energyAmbients, targetMHz)
		if len(rs) == 0 {
			return err
		}
		title := fmt.Sprintf("Min-energy guardbanding: minimum safe Vdd at iso-frequency (ambients %v)", energyAmbients)
		if err != nil {
			title += fmt.Sprintf(" [PARTIAL: %d row(s) finished]", len(rs))
		}
		fmt.Print(experiments.FormatEnergySweep(title, rs))
		if inf := experiments.InfeasibleEnergy(rs); len(inf) > 0 {
			fmt.Fprintf(os.Stderr, "taexp: warning: energysweep: target out of reach at nominal rail on: %s\n",
				strings.Join(inf, ", "))
		}
		var stats guardband.Stats
		for _, r := range rs {
			stats.Add(r.Stats)
		}
		fmt.Fprintf(os.Stderr, "[energysweep kernels: %s]\n", stats)
		if cerr := csvOut("energysweep.csv", func(w io.Writer) error {
			return experiments.WriteEnergyCSV(w, rs)
		}); cerr != nil && err == nil {
			err = cerr
		}
		return err
	case "scorecard":
		claims, err := ctx.Scorecard()
		if err != nil {
			return err
		}
		fmt.Println("Reproduction scorecard (paper claim vs measured, with acceptance bands):")
		fmt.Print(experiments.FormatScorecard(claims))
	case "ablations":
		type ab struct {
			title string
			fn    func(float64) ([]experiments.AblationRow, error)
		}
		for _, a := range []ab{
			{"Ablation: deltaT margin (Tamb=25C)", ctx.AblationDeltaT},
			{"Ablation: per-tile vs uniform temperature (Tamb=25C)", ctx.AblationUniformT},
			{"Ablation: leakage-temperature feedback (Tamb=70C)", ctx.AblationNoLeakFeedback},
			{"Ablation: placement effort (Tamb=25C)", ctx.AblationPlacement},
		} {
			amb := 25.0
			if strings.Contains(a.title, "70C") {
				amb = 70
			}
			rows, err := a.fn(amb)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatAblation(a.title, rows))
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// benchSuite runs one benchmark-suite experiment and prints its table. On
// cancellation the drivers return the benchmarks that finished alongside
// the error, so the partial table and CSV are still flushed before the
// non-zero exit.
func benchSuite(fn func() ([]experiments.BenchResult, error), title, csvFile string,
	warnUnconverged func([]experiments.BenchResult), csvOut func(string, func(io.Writer) error) error) error {
	rs, err := fn()
	if len(rs) == 0 {
		return err
	}
	if err != nil {
		title += fmt.Sprintf(" [PARTIAL: %d benchmark(s) finished]", len(rs))
	}
	fmt.Print(experiments.FormatBench(title, rs))
	warnUnconverged(rs)
	if cerr := csvOut(csvFile, func(w io.Writer) error { return experiments.WriteBenchCSV(w, rs) }); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
