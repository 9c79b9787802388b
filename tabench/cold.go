package main

// implement-cold: each op is one tafpga process with no cache. It sizes the
// device, generates a design from the mid-size pool with a seeded placement
// seed, packs, places and routes it from scratch, and runs one guardband
// objective. place, route, thermalest and coffe characterization do nearly
// all the work here and none in the other two workloads.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/netlist"
	"tafpga/internal/techmodel"
)

const (
	kindFmax    = "fmax"
	kindThermal = "thermal"
	kindEnergy  = "energy"
)

// coldOp is one tafpga invocation.
type coldOp struct {
	Design    string
	Kind      string
	AmbientC  float64
	PlaceSeed int64
}

// coldPool is the mid-size design pool: serial cold builds take about
// 0.3–2 s each. bgm, LU8PEEng, stereovision* and mcml take 7–31 s and stay out.
var coldPool = []string{"sha", "or1200", "boundtop", "raygentop", "mkSMAdapter4B", "mkDelayWorker32B", "blob_merge"}

// coldKinds is one deck's objective mix: four fmax runs, two after thermal
// placement, one min-energy search.
var coldKinds = []string{kindFmax, kindFmax, kindFmax, kindFmax, kindThermal, kindThermal, kindEnergy}

// coldAmbients are one deck's fmax ambients; min-energy runs at 25 or 70 °C.
var coldAmbients = []float64{10, 25, 40, 55, 70, 85}

const (
	coldThermalWeight = 0.25
	// coldClients is how many tafpga processes run at once: one per core,
	// each routing serially.
	coldClients = 2
	// coldMinOps keeps a run going past --seconds until it has started six
	// whole decks: every run then does the same multiset of work, and its
	// p75 tail has ten samples beyond it.
	coldMinOps = 6 * 7
)

// coldDeck deals every pool design once, paired with a shuffled objective
// mix, a shuffled ambient set and a fresh placement seed.
func coldDeck(r *rand.Rand) []coldOp {
	designs := shuffled(r, coldPool)
	kinds := shuffled(r, coldKinds)
	ambients := shuffled(r, coldAmbients)
	energyAmbient := []float64{25, 70}[r.Intn(2)]
	ops := make([]coldOp, len(designs))
	next := 0
	for i, d := range designs {
		op := coldOp{Design: d, Kind: kinds[i], PlaceSeed: 1 + r.Int63n(1<<31)}
		if op.Kind == kindEnergy {
			op.AmbientC = energyAmbient
		} else {
			op.AmbientC = ambients[next]
			next++
		}
		ops[i] = op
	}
	return ops
}

// cliArgs is the tafpga command line of an op, with every parallelism
// setting pinned to 1.
func cliArgs(op coldOp) []string {
	args := []string{"-route-workers", "1", "-parallel", "1",
		"-seed", strconv.FormatInt(op.PlaceSeed, 10),
		"-ambient", strconv.FormatFloat(op.AmbientC, 'g', -1, 64)}
	switch op.Kind {
	case kindThermal:
		args = append(args, "-thermal-weight", strconv.FormatFloat(coldThermalWeight, 'g', -1, 64))
	case kindEnergy:
		args = append(args, "-objective", "min-energy")
	}
	return append(args, op.Design)
}

// cliResult is what an op's output check extracts from tafpga's report.
type cliResult struct {
	gainPct   float64 // fmax objectives
	savingPct float64 // min-energy
	rssKB     int64
}

var (
	reRouter    = regexp.MustCompile(`router: (\d+) iterations`)
	reFmax      = regexp.MustCompile(`fmax \(thermal-aware\)\s+(\S+) MHz`)
	reWorst     = regexp.MustCompile(`fmax \(Tworst=100°C\)\s+(\S+) MHz`)
	reGain      = regexp.MustCompile(`improvement\s+(\S+) %`)
	reRise      = regexp.MustCompile(`mean rise / spread\s+(\S+) / (\S+) °C`)
	reTarget    = regexp.MustCompile(`target frequency\s+(\S+) MHz`)
	reVdd       = regexp.MustCompile(`min safe Vdd\s+(\S+) V\s+\(nominal (\S+) V\)`)
	reSaving    = regexp.MustCompile(`iso-frequency saving\s+(\S+) %`)
	reHeadroom  = regexp.MustCompile(`timing headroom\s+(\S+) MHz`)
	maxRouteItr = flow.DefaultOptions().Router.MaxIters
)

// parseCLI checks one tafpga report: a legal route within the negotiation
// budget, a converged Algorithm 1, fmax at or above the worst-case clock
// while the die stays within T_worst, and a feasible min-energy rail at or
// below nominal that meets its target.
func parseCLI(op coldOp, out string) (cliResult, error) {
	var res cliResult
	num := func(re *regexp.Regexp, group int) (float64, error) {
		m := re.FindStringSubmatch(out)
		if m == nil {
			return 0, fmt.Errorf("%s: no match for %q in the report", op.Design, re)
		}
		return strconv.ParseFloat(m[group], 64)
	}
	iters, err := num(reRouter, 1)
	if err != nil {
		return res, err
	}
	if iters < 1 || int(iters) > maxRouteItr {
		return res, fmt.Errorf("%s: router took %v iterations", op.Design, iters)
	}
	if strings.Contains(out, "WARNING") || strings.Contains(out, "INFEASIBLE") {
		return res, fmt.Errorf("%s: unconverged or infeasible result", op.Design)
	}
	if op.Kind == kindEnergy {
		target, err1 := num(reTarget, 1)
		vmin, err2 := num(reVdd, 1)
		vnom, err3 := num(reVdd, 2)
		headroom, err4 := num(reHeadroom, 1)
		saving, err5 := num(reSaving, 1)
		for _, e := range []error{err1, err2, err3, err4, err5} {
			if e != nil {
				return res, e
			}
		}
		if vmin > vnom || headroom < target {
			return res, fmt.Errorf("%s: rail %.3f V (nominal %.3f V) clocks %.1f MHz against a %.1f MHz target",
				op.Design, vmin, vnom, headroom, target)
		}
		res.savingPct = saving
		return res, nil
	}
	fmax, err1 := num(reFmax, 1)
	worst, err2 := num(reWorst, 1)
	gain, err3 := num(reGain, 1)
	rise, err4 := num(reRise, 1)
	spread, err5 := num(reRise, 2)
	for _, e := range []error{err1, err2, err3, err4, err5} {
		if e != nil {
			return res, e
		}
	}
	opts := guardband.DefaultOptions(op.AmbientC)
	hot := op.AmbientC + rise + spread + opts.DeltaTC
	if err := checkBaseline(op.AmbientC, hot, fmax, worst, opts.WorstCaseC); err != nil {
		return res, fmt.Errorf("%s: %w", op.Design, err)
	}
	res.gainPct = gain
	return res, nil
}

// runCLI runs one op as a tafpga process and checks its report. It returns
// the process wall time and the report with its timing line removed (the
// bytes the run digest covers).
func runCLI(bin string, op coldOp) (cliResult, time.Duration, []byte, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, cliArgs(op)...)
	// One core per process: the two concurrent ops (and their garbage
	// collectors) never compete for the other's core.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return cliResult{}, wall, nil, fmt.Errorf("tafpga %s: %v: %s", strings.Join(cliArgs(op), " "), err, strings.TrimSpace(stderr.String()))
	}
	res, err := parseCLI(op, stdout.String())
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssKB = ru.Maxrss
	}
	return res, wall, untimedReport(stdout.Bytes()), err
}

// untimedReport drops the kernel wall-time lines from a tafpga report.
func untimedReport(out []byte) []byte {
	var b bytes.Buffer
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "kernels") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func runImplementCold(cfg config) (*report, error) {
	if cfg.trace {
		return traceImplementCold(cfg)
	}
	bin := filepath.Join(cfg.binDir, "tafpga")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("implement-cold needs the tafpga binary: %w", err)
	}
	// Untimed warm-up: one op of each kind on the smallest pool design.
	for _, k := range []string{kindFmax, kindThermal, kindEnergy} {
		if _, _, _, err := runCLI(bin, coldOp{Design: "sha", Kind: k, AmbientC: 25, PlaceSeed: 1}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	rep := &report{correct: true}
	setup := time.Since(processStart)

	done, elapsed := coldLoop(bin, newStream(cfg.seed, "implement-cold", coldDeck), cfg.seconds)
	// Each op is its own process: peak_rss_mb is the mean of their peaks
	// (the largest one swung ±10% with garbage-collector timing).
	var lat, gains, savings, peaksMB []float64
	var dg digest
	var busy time.Duration
	for _, d := range done {
		rep.attempted++
		busy += d.wall
		if d.idx < len(coldPool) {
			dg.add(d.report) // the first deck: identical for every run of a seed
		}
		if d.err != nil {
			rep.failed++
			rep.note("failed op %d %+v: %v", d.idx, d.op, d.err)
			continue
		}
		lat = append(lat, d.wall.Seconds())
		peaksMB = append(peaksMB, float64(d.res.rssKB)/1024)
		if d.op.Kind == kindEnergy {
			savings = append(savings, d.res.savingPct)
		} else {
			gains = append(gains, d.res.gainPct)
		}
	}
	// Throughput counts the time both clients were busy: when the last of
	// a run's 1–4 s ops ends, the other client has sat idle for up to one
	// op, which alone moved ops/elapsed by ±5% between runs.
	rep.note("wall %.3f s until the last op ended; clients busy %.3f s each", elapsed.Seconds(), busy.Seconds()/coldClients)
	return finishTimed(rep, "implement-cold", setup, busy/coldClients, lat, 75, &dg, mean(peaksMB), gains, savings)
}

// coldDone is one finished tafpga op.
type coldDone struct {
	idx    int
	op     coldOp
	res    cliResult
	wall   time.Duration
	report []byte
	err    error
}

// coldLoop runs coldClients tafpga processes at a time from the shared
// stream until the time is up and at least coldMinOps ops have started. It
// returns the ops in stream order and the wall time until the last ended.
func coldLoop(bin string, st *stream[coldOp], seconds float64) ([]coldDone, time.Duration) {
	var (
		mu      sync.Mutex
		started int
		done    []coldDone
		wg      sync.WaitGroup
	)
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for c := 0; c < coldClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if time.Since(start) >= dur && started >= coldMinOps {
					mu.Unlock()
					return
				}
				d := coldDone{idx: started, op: st.next()}
				started++
				mu.Unlock()
				d.res, d.wall, d.report, d.err = runCLI(bin, d.op)
				mu.Lock()
				done = append(done, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(done, func(i, j int) bool { return done[i].idx < done[j].idx })
	return done, elapsed
}

// coldOutcome is one op's in-process outputs, as physics bytes.
type coldOutcome struct {
	impl, objective []byte
	gainPct         float64
	savingPct       float64
}

func coldFlowOptions(op coldOp) flow.Options {
	opts := flow.DefaultOptions()
	opts.Seed = op.PlaceSeed
	opts.Router.Workers = 1
	if op.Kind == kindThermal {
		opts.ThermalPlace = flow.ThermalPlace{Weight: coldThermalWeight}
	}
	return opts
}

func generate(name string) (*netlist.Netlist, error) {
	p, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return bench.Generate(p.Scaled(bench.DefaultScale), bench.SeedFor(name))
}

// coldInProcess is the tafpga op in process: through the entry points when
// tr is nil, rebuilt from the layers with spans otherwise. It returns the
// implementation and a *guardband.Result or *guardband.EnergyResult.
func coldInProcess(tr *tracer, op coldOp) (*flow.Implementation, any, error) {
	if tr != nil {
		defer tr.begin("op")()
	}
	span := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		return tr.begin(name)
	}
	end := span("coffe.size")
	dev, err := coffe.SizeDevice(techmodel.Default22nm(), coffe.DefaultParams(), 25)
	end()
	if err != nil {
		return nil, nil, err
	}
	end = span("bench.generate")
	nl, err := generate(op.Design)
	end()
	if err != nil {
		return nil, nil, err
	}
	opts := coldFlowOptions(op)
	var im *flow.Implementation
	if tr == nil {
		im, err = flow.Implement(nl, dev, opts)
	} else {
		im, err = implementTraced(tr, nl, dev, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	var res any
	if op.Kind == kindEnergy {
		eo := guardband.DefaultEnergyOptions(op.AmbientC)
		if tr == nil {
			res, err = flow.NewVddLab(im).MinEnergy(eo)
		} else {
			res, err = newTracedLab(im).minEnergy(tr, eo)
		}
	} else {
		gb := guardband.DefaultOptions(op.AmbientC)
		if tr == nil {
			res, err = im.Guardband(gb)
		} else {
			res, err = runTraced(tr, im, gb)
		}
	}
	return im, res, err
}

// coldCheck checks an in-process op's outputs and returns them as physics
// bytes.
func coldCheck(op coldOp, im *flow.Implementation, res any) (*coldOutcome, error) {
	opts := coldFlowOptions(op)
	if err := checkRoute(im.Routed, opts.Router); err != nil {
		return nil, err
	}
	out := &coldOutcome{impl: physics(im), objective: physics(res)}
	switch r := res.(type) {
	case *guardband.EnergyResult:
		out.savingPct = r.SavingsPct
		return out, checkEnergy(r)
	case *guardband.Result:
		out.gainPct = r.GainPct
		return out, checkFmax(op.AmbientC, r, guardband.DefaultOptions(op.AmbientC))
	}
	return nil, fmt.Errorf("unexpected result %T", res)
}

// traceImplementCold replays the first deck of the seed's stream in
// process: each op once through flow.Implement and the guardband entry
// points, once rebuilt with spans (alternating which goes first), and
// asserts the two give byte-identical outputs.
func traceImplementCold(cfg config) (*report, error) {
	ops := newStream(cfg.seed, "implement-cold", coldDeck).take(len(coldPool))
	warm := coldOp{Design: "sha", Kind: kindFmax, AmbientC: 25, PlaceSeed: 1}
	im, res, err := coldInProcess(nil, warm)
	if err == nil {
		_, err = coldCheck(warm, im, res)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rep := &report{correct: true}
	t := traceRun{tr: newTracer(), ops: len(ops)}
	var dg digest
	for i, op := range ops {
		rep.attempted++
		var refIm, gotIm *flow.Implementation
		var refRes, gotRes any
		var refErr, gotErr error
		runPlain := func() {
			t0 := time.Now()
			refIm, refRes, refErr = coldInProcess(nil, op)
			t.plain += time.Since(t0)
		}
		runTraced := func() {
			a0 := totalAllocMB()
			t0 := time.Now()
			gotIm, gotRes, gotErr = coldInProcess(t.tr, op)
			t.traced += time.Since(t0)
			t.allocMB += totalAllocMB() - a0
		}
		if i%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		var ref, got *coldOutcome
		if refErr == nil {
			ref, refErr = coldCheck(op, refIm, refRes)
		}
		if gotErr == nil {
			got, gotErr = coldCheck(op, gotIm, gotRes)
		}
		if refErr != nil || gotErr != nil {
			rep.failed++
			rep.note("failed op %d %+v: %v / %v", i+1, op, refErr, gotErr)
			continue
		}
		if !bytes.Equal(ref.impl, got.impl) || !bytes.Equal(ref.objective, got.objective) {
			rep.correct = false
			rep.note("identity: op %d %+v: rebuilt pipeline differs from flow.Implement", i+1, op)
		}
		dg.add(ref.impl)
		dg.add(ref.objective)
		if op.Kind == kindEnergy {
			t.savings = append(t.savings, ref.savingPct)
		}
	}
	rep.note("digest %s", &dg)
	rep.note("identity: %d ops rebuilt from the layers, outputs compared byte for byte", len(ops))
	return finishTraced(rep, t, cfg.workDir)
}
