package main

// guardband-warm: Algorithm 1 alone. Setup builds four designs once and
// warms one VddLab per design at both min-energy ambients, so the timed ops
// exercise only the three Algorithm-1 loops (Run, RunBatch and the
// min-energy convergence) and the STA, power and thermal kernels under them.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/techmodel"
)

const (
	kindRun   = "run"
	kindBatch = "batch"
	// warmTraceDecks is how many decks a traced run replays.
	warmTraceDecks = 16
)

var warmDesigns = []string{"sha", "or1200", "blob_merge", "mkDelayWorker32B"}

// warmAxis is the batch axis 0:100:10 and the single-ambient Run grid.
var warmAxis = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// warmEnergyAmbients are the ambients the labs are warmed at.
var warmEnergyAmbients = []float64{25, 70}

type warmOp struct {
	Design   string
	Kind     string
	AmbientC float64
}

// warmDeck is every design crossed with the Run grid (11 ops), three
// 11-lane batches and a min-energy search at each warm ambient: 64 ops,
// about 70% Run, 20% RunBatch and 10% min-energy. Each deck holds the same
// multiset, so the physics averages over whole decks are seed-independent.
// A design's 16 ops run back to back in a shuffled order, and the designs
// come in a shuffled order: interleaving designs op by op made each op's
// cache state, and so the median latency, depend on the seed.
func warmDeck(r *rand.Rand) []warmOp {
	var ops []warmOp
	for _, d := range shuffled(r, warmDesigns) {
		var block []warmOp
		for _, a := range warmAxis {
			block = append(block, warmOp{d, kindRun, a})
		}
		for i := 0; i < 3; i++ {
			block = append(block, warmOp{d, kindBatch, warmAxis[0]})
		}
		for _, a := range warmEnergyAmbients {
			block = append(block, warmOp{d, kindEnergy, a})
		}
		ops = append(ops, shuffled(r, block)...)
	}
	return ops
}

// warmDesign is one prebuilt implementation with its warm labs.
type warmDesign struct {
	im   *flow.Implementation
	lab  *flow.VddLab
	tlab *tracedLab // traced runs only
}

// setupWarm sizes the device, builds every design serially, and warms the
// labs at both energy ambients. Traced runs warm a tracedLab per design too.
func setupWarm(traced bool) (map[string]*warmDesign, error) {
	dev, err := coffe.SizeDevice(techmodel.Default22nm(), coffe.DefaultParams(), 25)
	if err != nil {
		return nil, err
	}
	out := map[string]*warmDesign{}
	for _, name := range warmDesigns {
		p, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		nl, err := bench.Generate(p.Scaled(bench.DefaultScale), bench.SeedFor(name))
		if err != nil {
			return nil, err
		}
		opts := flow.DefaultOptions()
		opts.Seed = bench.SeedFor(name)
		opts.PIDensity = p.PIDensity
		opts.Router.Workers = 1
		im, err := flow.Implement(nl, dev, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		d := &warmDesign{im: im, lab: flow.NewVddLab(im)}
		if traced {
			d.tlab = newTracedLab(im)
		}
		for _, a := range warmEnergyAmbients {
			if _, err := d.lab.MinEnergy(guardband.DefaultEnergyOptions(a)); err != nil {
				return nil, fmt.Errorf("%s: warming the lab at %g°C: %w", name, a, err)
			}
			if traced {
				if _, err := d.tlab.minEnergy(newTracer(), guardband.DefaultEnergyOptions(a)); err != nil {
					return nil, fmt.Errorf("%s: warming the traced lab at %g°C: %w", name, a, err)
				}
			}
		}
		out[name] = d
	}
	return out, nil
}

// runWarm runs one op through the entry points (tr nil) or rebuilt with
// spans. It returns a *guardband.Result, a []*guardband.Result or a
// *guardband.EnergyResult; the checks and digests run outside it, so op
// latency covers only the library call.
func runWarm(designs map[string]*warmDesign, tr *tracer, op warmOp) (any, error) {
	d := designs[op.Design]
	if tr != nil {
		defer tr.begin("op")()
	}
	switch op.Kind {
	case kindRun:
		opts := guardband.DefaultOptions(op.AmbientC)
		if tr == nil {
			return d.im.Guardband(opts)
		}
		return runTraced(tr, d.im, opts)
	case kindBatch:
		opts := guardband.DefaultOptions(warmAxis[0])
		if tr == nil {
			return d.im.GuardbandBatch(warmAxis, opts)
		}
		return batchTraced(tr, d.im, warmAxis, opts)
	default:
		opts := guardband.DefaultEnergyOptions(op.AmbientC)
		if tr == nil {
			return d.lab.MinEnergy(opts)
		}
		return d.tlab.minEnergy(tr, opts)
	}
}

// checkWarm checks one op's outputs and returns its fmax gains and its
// energy saving.
func checkWarm(op warmOp, out any) (gains []float64, saving float64, err error) {
	opts := guardband.DefaultOptions(op.AmbientC)
	switch r := out.(type) {
	case *guardband.Result:
		return []float64{r.GainPct}, 0, checkFmax(op.AmbientC, r, opts)
	case []*guardband.Result:
		for i, x := range r {
			gains = append(gains, x.GainPct)
			if err := checkFmax(warmAxis[i], x, opts); err != nil {
				return gains, 0, err
			}
		}
		return gains, 0, nil
	case *guardband.EnergyResult:
		return nil, r.SavingsPct, checkEnergy(r)
	}
	return nil, 0, fmt.Errorf("unexpected result %T", out)
}

func runGuardbandWarm(cfg config) (*report, error) {
	designs, err := setupWarm(cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// Untimed warm-up: one op of each kind.
	for _, op := range []warmOp{{"sha", kindRun, 25}, {"sha", kindBatch, 0}, {"sha", kindEnergy, 25}} {
		out, err := runWarm(designs, nil, op)
		if err == nil {
			_, _, err = checkWarm(op, out)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if cfg.trace {
		return traceGuardbandWarm(cfg, designs)
	}
	// Start timing from a collected heap, not mid-way through the cycle
	// setup's garbage started.
	runtime.GC()
	rep := &report{correct: true}
	setup := time.Since(processStart)

	st := newStream(cfg.seed, "guardband-warm", warmDeck)
	deck := len(warmDesigns) * (len(warmAxis) + 3 + len(warmEnergyAmbients))
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var lat []float64
	// Physics averages cover whole decks only, so they do not depend on
	// where the clock stopped.
	var gains, savings, deckGains, deckSavings []float64
	var dg digest
	start := time.Now()
	for time.Since(start) < dur || rep.attempted < deck {
		op := st.next()
		rep.attempted++
		t0 := time.Now()
		out, err := runWarm(designs, nil, op)
		wall := time.Since(t0)
		var g []float64
		var saving float64
		if err == nil {
			g, saving, err = checkWarm(op, out)
		}
		if rep.attempted <= deck {
			if err == nil {
				dg.add(physics(out))
			} else {
				dg.add([]byte(err.Error()))
			}
		}
		if err != nil {
			rep.failed++
			rep.note("failed op %d %+v: %v", rep.attempted, op, err)
		} else {
			lat = append(lat, wall.Seconds())
			deckGains = append(deckGains, g...)
			if op.Kind == kindEnergy {
				deckSavings = append(deckSavings, saving)
			}
		}
		if rep.attempted%deck == 0 {
			gains, savings = append(gains, deckGains...), append(savings, deckSavings...)
			deckGains, deckSavings = deckGains[:0], deckSavings[:0]
		}
	}
	elapsed := time.Since(start)
	return finishTimed(rep, "guardband-warm", setup, elapsed, lat, 99, &dg, peakRSSMB(os.Getpid()), gains, savings)
}

// traceGuardbandWarm replays the first decks of the seed's stream through
// the entry points and rebuilt with spans, deck by deck in alternating
// order, and asserts byte-identical outputs.
func traceGuardbandWarm(cfg config, designs map[string]*warmDesign) (*report, error) {
	st := newStream(cfg.seed, "guardband-warm", warmDeck)
	deck := len(warmDesigns) * (len(warmAxis) + 3 + len(warmEnergyAmbients))
	rep := &report{correct: true}
	t := traceRun{tr: newTracer()}
	var dg digest
	mismatches := 0
	for k := 0; k < warmTraceDecks; k++ {
		ops := st.take(deck)
		ref := make([]any, len(ops))
		got := make([]any, len(ops))
		errs := make([]error, len(ops))
		plainPass := func() {
			t0 := time.Now()
			for i, op := range ops {
				ref[i], errs[i] = runWarm(designs, nil, op)
			}
			t.plain += time.Since(t0)
		}
		tracedPass := func() {
			a0 := totalAllocMB()
			t0 := time.Now()
			for i, op := range ops {
				var err error
				got[i], err = runWarm(designs, t.tr, op)
				errs[i] = errors.Join(errs[i], err)
			}
			t.traced += time.Since(t0)
			t.allocMB += totalAllocMB() - a0
		}
		if k%2 == 0 {
			plainPass()
			tracedPass()
		} else {
			tracedPass()
			plainPass()
		}
		for i, op := range ops {
			rep.attempted++
			t.ops++
			var saving float64
			err := errs[i]
			if err == nil {
				_, saving, err = checkWarm(op, ref[i])
			}
			if err != nil {
				rep.failed++
				rep.note("failed op %d %+v: %v", rep.attempted, op, err)
				continue
			}
			phys := physics(ref[i])
			if !bytes.Equal(phys, physics(got[i])) {
				mismatches++
			}
			if k == 0 {
				dg.add(phys)
			}
			if op.Kind == kindEnergy {
				t.savings = append(t.savings, saving)
			}
		}
	}
	if mismatches > 0 {
		rep.correct = false
		rep.note("identity: %d traced outputs differ from the entry points'", mismatches)
	}
	rep.note("digest %s", &dg)
	rep.note("identity: %d ops rebuilt from the layers, outputs compared byte for byte", t.ops)
	return finishTraced(rep, t, cfg.workDir)
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
