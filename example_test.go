package tafpga_test

import (
	"fmt"
	"log"

	"tafpga"
)

// Size a device, implement a benchmark, and compare thermal-aware
// guardbanding against the conventional worst-case margin.
func Example_quickstart() {
	// 1. A process kit + Table I architecture, and a fabric transistor-
	//    sized for the typical 25 °C corner (the COFFE step of the paper).
	cfg := tafpga.NewConfig()
	dev, err := cfg.SizeDevice(25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device sized for %.0f°C; representative CP %.0f ps at 25°C\n",
		dev.CornerC, dev.RepCP(25))

	// 2. A workload: the `sha` benchmark at 1/32 of its published size so
	//    the example runs in seconds.
	nl, err := tafpga.GenerateBenchmark("sha", 1.0/32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark: %v\n", nl.Stats())

	// 3. The implementation flow: activity estimation, packing, simulated-
	//    annealing placement, PathFinder routing.
	opts, err := tafpga.BenchmarkFlowOptions("sha")
	if err != nil {
		log.Fatal(err)
	}
	opts.ChannelTracks = 104 // slim the routing graph for the example
	im, err := tafpga.Implement(nl, dev, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("implemented on %s\n", im.Grid)

	// 4. Algorithm 1: iterate timing → power → thermal to convergence and
	//    clock for the converged per-tile temperatures plus δT, instead of
	//    the 100 °C worst case.
	res, err := im.Guardband(tafpga.GuardbandOptions(25))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worst-case clock:     %7.1f MHz\n", res.BaselineMHz)
	fmt.Printf("thermal-aware clock:  %7.1f MHz (+%.1f%%)\n", res.FmaxMHz, res.GainPct)
	fmt.Printf("converged in %d iterations; die heated %.1f°C over ambient\n",
		res.Iterations, res.RiseC)
	// Output:
	// device sized for 25°C; representative CP 164 ps at 25°C
	// benchmark: 72 LUTs, 28 FFs, 0 BRAMs, 0 DSPs, 8 PIs, 8 POs, 95 nets
	// implemented on 6x6 grid: 12 logic, 4 bram, 0 dsp, 20 io tiles
	// worst-case clock:        53.9 MHz
	// thermal-aware clock:     74.3 MHz (+37.9%)
	// converged in 2 iterations; die heated 1.0°C over ambient
}

// The paper's motivating deployment: an FPGA accelerator in a server whose
// CPU exhaust preheats the board, so the device sees a 70 °C ambient
// (Section III-C cites datacenter FPGAs reaching 100 °C junction). For a
// DSP-heavy streaming workload the example quantifies what worst-case
// guardbanding costs at that ambient, what thermal-aware guardbanding
// (Algorithm 1) recovers, and what a 70 °C-optimized device grade adds on
// top (the paper's Fig. 8).
func Example_datacenter() {
	const ambientC = 70
	cfg := tafpga.NewConfig()
	lib := cfg.DeviceLibrary()

	typical, err := lib.Device(25) // the off-the-shelf grade
	if err != nil {
		log.Fatal(err)
	}
	grade := tafpga.GradeFor(60, 95) // field window of the server rack
	fmt.Printf("field window 60–95°C → grade %q (sizing corner %.0f°C)\n\n", grade.Name, grade.CornerC)
	hot, err := lib.Device(grade.CornerC)
	if err != nil {
		log.Fatal(err)
	}

	// A DSP-heavy streaming workload (stereo vision pipeline).
	nl, err := tafpga.GenerateBenchmark("stereovision1", 1.0/64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %v\n", nl.Stats())

	opts, err := tafpga.BenchmarkFlowOptions("stereovision1")
	if err != nil {
		log.Fatal(err)
	}
	opts.ChannelTracks = 104
	im, err := tafpga.Implement(nl, typical, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Worst-case vs thermal-aware on the typical device.
	res, err := im.Guardband(tafpga.GuardbandOptions(ambientC))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntypical device at Tamb=%.0f°C:\n", float64(ambientC))
	fmt.Printf("  worst-case clock     %7.1f MHz\n", res.BaselineMHz)
	fmt.Printf("  thermal-aware clock  %7.1f MHz (+%.1f%%)\n", res.FmaxMHz, res.GainPct)

	// The same mapped design on the hot-grade fabric (placement and
	// routing carry over — the architecture is identical, only the
	// transistor sizing differs).
	imHot, err := im.WithDevice(hot)
	if err != nil {
		log.Fatal(err)
	}
	resHot, err := imHot.Guardband(tafpga.GuardbandOptions(ambientC))
	if err != nil {
		log.Fatal(err)
	}
	extra := (resHot.FmaxMHz/res.FmaxMHz - 1) * 100
	fmt.Printf("\n%.0f°C-grade device, thermal-aware:\n", grade.CornerC)
	fmt.Printf("  clock                %7.1f MHz (+%.1f%% over the typical grade)\n", resHot.FmaxMHz, extra)

	total := (resHot.FmaxMHz/res.BaselineMHz - 1) * 100
	fmt.Printf("\ncombined gain over worst-case on the typical grade: +%.1f%%\n", total)
	// Output:
	// field window 60–95°C → grade "datacenter" (sizing corner 70°C)
	//
	// workload: 161 LUTs, 172 FFs, 0 BRAMs, 2 DSPs, 8 PIs, 8 POs, 233 nets
	//
	// typical device at Tamb=70°C:
	//   worst-case clock        57.2 MHz
	//   thermal-aware clock     63.9 MHz (+11.7%)
	//
	// 70°C-grade device, thermal-aware:
	//   clock                   65.2 MHz (+2.1% over the typical grade)
	//
	// combined gain over worst-case on the typical grade: +14.0%
}

// The paper's Section III-B/III-C study: size fabrics for several thermal
// corners, cross-evaluate their representative critical paths over the
// junction range (Fig. 3), and pick the corner minimizing expected delay
// (Eq. 1) for three field conditions.
func Example_cornerExplorer() {
	cfg := tafpga.NewConfig()
	lib := cfg.DeviceLibrary()
	corners := []float64{0, 25, 70, 100}

	// Fig. 3-style sweep: absolute CP delay of each corner-sized device.
	fmt.Println("representative CP delay (ps) vs operating temperature:")
	fmt.Printf("%8s", "T(C)")
	for _, c := range corners {
		fmt.Printf("%10s", fmt.Sprintf("D%.0f", c))
	}
	fmt.Println()
	for t := 0.0; t <= 100; t += 10 {
		fmt.Printf("%8.0f", t)
		for _, c := range corners {
			d, err := lib.Device(c)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%10.1f", d.RepCP(t))
		}
		fmt.Println()
	}

	// Eq. 1: expected delay over a uniform field range, per corner.
	fields := []struct {
		name       string
		tMin, tMax float64
	}{
		{"outdoor telecom cabinet", -5, 35},
		{"office edge server", 20, 55},
		{"datacenter accelerator", 55, 100},
	}
	for _, f := range fields {
		choices, err := cfg.SelectCorner(f.tMin, f.tMax, corners)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nfield %q (%.0f..%.0f°C): expected CP delay per corner\n", f.name, f.tMin, f.tMax)
		for _, ch := range choices {
			fmt.Printf("  D%-4.0f E[d] = %7.2f ps\n", ch.CornerC, ch.ExpectedDelay)
		}
		best := choices[0]
		penalty := (choices[len(choices)-1].ExpectedDelay/best.ExpectedDelay - 1) * 100
		fmt.Printf("  → pick D%.0f (worst candidate costs +%.1f%%)\n", best.CornerC, penalty)
	}

	// The grade menu shorthand.
	fmt.Println("\nstandard grades:")
	for _, g := range tafpga.StandardGrades() {
		fmt.Printf("  %-10s corner %3.0f°C, field %.0f..%.0f°C\n", g.Name, g.CornerC, g.FieldMinC, g.FieldMaxC)
	}
	// Output:
	// representative CP delay (ps) vs operating temperature:
	//     T(C)        D0       D25       D70      D100
	//        0     147.4     150.0     155.7     159.9
	//       10     154.8     155.4     161.0     165.1
	//       20     162.3     160.9     166.4     170.4
	//       30     170.0     167.5     171.9     175.9
	//       40     177.9     175.3     177.5     181.5
	//       50     186.0     183.1     183.3     187.2
	//       60     194.2     191.1     189.2     193.0
	//       70     202.5     199.2     195.2     198.9
	//       80     210.9     207.4     203.1     204.9
	//       90     219.5     215.8     211.2     211.0
	//      100     228.2     224.3     219.4     217.2
	//
	// field "outdoor telecom cabinet" (-5..35°C): expected CP delay per corner
	//   D25   E[d] =  158.49 ps
	//   D0    E[d] =  158.70 ps
	//   D70   E[d] =  163.74 ps
	//   D100  E[d] =  167.84 ps
	//   → pick D25 (worst candidate costs +5.9%)
	//
	// field "office edge server" (20..55°C): expected CP delay per corner
	//   D25   E[d] =  173.45 ps
	//   D0    E[d] =  176.03 ps
	//   D70   E[d] =  176.18 ps
	//   D100  E[d] =  180.14 ps
	//   → pick D25 (worst candidate costs +3.9%)
	//
	// field "datacenter accelerator" (55..100°C): expected CP delay per corner
	//   D70   E[d] =  201.69 ps
	//   D100  E[d] =  203.45 ps
	//   D25   E[d] =  205.45 ps
	//   D0    E[d] =  208.90 ps
	//   → pick D70 (worst candidate costs +3.6%)
	//
	// standard grades:
	//   cold       corner   0°C, field -10..25°C
	//   typical    corner  25°C, field 0..60°C
	//   datacenter corner  70°C, field 45..100°C
}

// Run Algorithm 1 on a benchmark and render the converged per-tile
// temperature map as ASCII art, together with the timing margin the
// thermal-aware flow recovers. This makes the paper's central point
// visible: the die is not isothermal, so a single worst-case margin wastes
// headroom almost everywhere.
func Example_thermalMap() {
	cfg := tafpga.NewConfig()
	dev, err := cfg.SizeDevice(25)
	if err != nil {
		log.Fatal(err)
	}
	nl, err := tafpga.GenerateBenchmark("raygentop", 1.0/16)
	if err != nil {
		log.Fatal(err)
	}
	opts, err := tafpga.BenchmarkFlowOptions("raygentop")
	if err != nil {
		log.Fatal(err)
	}
	opts.ChannelTracks = 104
	im, err := tafpga.Implement(nl, dev, opts)
	if err != nil {
		log.Fatal(err)
	}

	res, err := im.Guardband(tafpga.GuardbandOptions(45))
	if err != nil {
		log.Fatal(err)
	}

	lo := res.Temps[0]
	hi := lo
	for _, t := range res.Temps {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	fmt.Printf("%v on %s\n", nl.Stats(), im.Grid)
	fmt.Printf("converged thermal map at Tamb=45°C: %.2f..%.2f°C (spread %.2f°C, mean rise %.2f°C)\n\n",
		lo, hi, res.SpreadC, res.RiseC)

	// Render: one character per tile, '.'=coolest … '9'=hottest.
	ramp := []byte(".:-=+*#%@9")
	for y := 0; y < im.Grid.H; y++ {
		for x := 0; x < im.Grid.W; x++ {
			t := res.Temps[im.Grid.Index(x, y)]
			idx := 0
			if hi > lo {
				idx = int((t - lo) / (hi - lo) * float64(len(ramp)-1))
			}
			fmt.Printf("%c", ramp[idx])
		}
		switch y {
		case 0:
			fmt.Printf("   fmax thermal-aware: %.1f MHz", res.FmaxMHz)
		case 1:
			fmt.Printf("   fmax worst-case:    %.1f MHz", res.BaselineMHz)
		case 2:
			fmt.Printf("   recovered: +%.1f%%", res.GainPct)
		}
		fmt.Println()
	}

	fmt.Println("\ncolumn classes (row 1 of the fabric):")
	for x := 0; x < im.Grid.W; x++ {
		c := im.Grid.Class(x, 1)
		fmt.Printf("%c", c.String()[0])
	}
	fmt.Println("  (l=logic, b=bram, d=dsp, i=io)")
	// Output:
	// 131 LUTs, 75 FFs, 1 BRAMs, 1 DSPs, 8 PIs, 8 POs, 175 nets on 8x8 grid: 24 logic, 6 bram, 6 dsp, 28 io tiles
	// converged thermal map at Tamb=45°C: 46.34..46.58°C (spread 0.24°C, mean rise 1.43°C)
	//
	// .::::...   fmax thermal-aware: 77.7 MHz
	// :-==--:.   fmax worst-case:    62.2 MHz
	// -=+++=-:   recovered: +24.8%
	// -+****+-
	// -+##*#9+
	// -+**+++-
	// -=++==-:
	// :---:::.
	//
	// column classes (row 1 of the fabric):
	// illlbldi  (l=logic, b=bram, d=dsp, i=io)
}

// The voltage half of corner notation ("100°C@0.8V") and the
// temperature-voltage interplay. Re-characterizing the core rail at three
// supplies shows two effects the thermal-aware flow must reason about
// together: a higher rail buys speed at every temperature (and pays
// leakage), and a lower rail flattens the temperature sensitivity (the
// trend toward inverted temperature dependence), shrinking what worst-case
// guardbanding over-provisions in the first place.
func Example_voltageCorners() {
	base := tafpga.NewConfig()
	supplies := []float64{0.7, 0.8, 0.9}

	devs := map[float64]*tafpga.Device{}
	for _, v := range supplies {
		cfg, err := base.AtVdd(v)
		if err != nil {
			log.Fatal(err)
		}
		d, err := cfg.SizeDevice(25)
		if err != nil {
			log.Fatal(err)
		}
		devs[v] = d
	}

	fmt.Println("representative CP delay (ps) of a 25°C-sized fabric per core rail:")
	fmt.Printf("%8s", "T(C)")
	for _, v := range supplies {
		fmt.Printf("%12s", fmt.Sprintf("%.1fV", v))
	}
	fmt.Println()
	for t := 0.0; t <= 100; t += 20 {
		fmt.Printf("%8.0f", t)
		for _, v := range supplies {
			fmt.Printf("%12.1f", devs[v].RepCP(t))
		}
		fmt.Println()
	}

	fmt.Println("\ntemperature sensitivity (delay at 100°C / delay at 0°C):")
	for _, v := range supplies {
		d := devs[v]
		fmt.Printf("  %.1fV: %.3f\n", v, d.RepCP(100)/d.RepCP(0))
	}

	fmt.Println("\nworst-case guardband cost per rail (clocking for 100°C while running at 25°C):")
	for _, v := range supplies {
		d := devs[v]
		overhead := (d.RepCP(100)/d.RepCP(25) - 1) * 100
		fmt.Printf("  %.1fV: +%.1f%% delay margin wasted\n", v, overhead)
	}
	// Output:
	// representative CP delay (ps) of a 25°C-sized fabric per core rail:
	//     T(C)        0.7V        0.8V        0.9V
	//        0       186.4       150.0       128.7
	//       20       198.5       160.9       138.6
	//       40       214.7       175.3       151.5
	//       60       232.6       191.1       165.8
	//       80       251.0       207.4       180.7
	//      100       269.7       224.3       196.1
	//
	// temperature sensitivity (delay at 100°C / delay at 0°C):
	//   0.7V: 1.447
	//   0.8V: 1.495
	//   0.9V: 1.524
	//
	// worst-case guardband cost per rail (clocking for 100°C while running at 25°C):
	//   0.7V: +33.8% delay margin wasted
	//   0.8V: +37.0% delay margin wasted
	//   0.9V: +38.9% delay margin wasted
}
