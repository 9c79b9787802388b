// Package experiments reproduces every table and figure of the paper's
// evaluation (Section IV): Fig. 1 (delay vs temperature), Fig. 2/3
// (corner-optimized fabrics), Table I (architecture), Table II (device
// characterization), Fig. 6/7 (guardbanding gains at 25 °C / 70 °C over the
// 19-benchmark suite), and Fig. 8 (thermal-aware architecture at 70 °C),
// plus the ablations called out in DESIGN.md. The same drivers back the
// taexp command and the repository's benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/techmodel"
	"tafpga/internal/thermalest"
	"tafpga/internal/thermarch"
)

// Context carries the shared setup and caches (sized devices, implemented
// benchmarks) across experiments. It is safe for concurrent use: the
// drivers themselves fan their cells out over a bounded worker pool (see
// Workers), and several drivers may run on one context at once.
type Context struct {
	Kit  *techmodel.Kit
	Arch coffe.Params
	Lib  *thermarch.Library

	// Scale is the benchmark scale (bench.DefaultScale for the harness).
	Scale float64
	// ChannelTracks overrides the router's channel width (0 = Table I).
	ChannelTracks int
	// PlaceEffort scales the annealing budget.
	PlaceEffort float64
	// Benchmarks restricts the suite (nil = all 19).
	Benchmarks []string

	// Workers bounds the one fan-out every driver runs its cells on — the
	// benchmarks of a suite (Figs. 6–8, the ablations, the energy sweep)
	// or the ambients of a sweep (SweepOn, Fig8Sweep): 0 means
	// runtime.GOMAXPROCS(0) and 1 reproduces the serial engine. Every cell
	// carries its own seed and results are assembled in axis order, so
	// any worker count produces bit-identical output.
	Workers int

	// Ctx, when non-nil, cancels the drivers: the fan-out stops claiming
	// new cells, the flow stops between pipeline stages, and Algorithm 1
	// stops between iterations. Drivers then return the cells that
	// finished up to the first unfinished one, in axis order, together
	// with the context error — what a serial run would have returned — so
	// callers can still flush what finished. A nil Ctx never cancels.
	Ctx context.Context

	// OnProgress, when set, receives each Algorithm-1 iteration of every
	// guardband run the drivers issue, labelled with the benchmark name.
	// Calls may arrive concurrently from pool workers; the callback
	// observes runs and cannot alter any result.
	OnProgress func(bench string, p guardband.Progress)

	// OnBenchDone, when set, receives each fan-out cell's label (the
	// benchmark name, or "<bench>@<ambient>" on a sweep) and wall time as
	// the drivers finish it (calls are serialized, completion order).
	OnBenchDone func(name string, elapsed time.Duration)

	// FlowCache, when set, memoizes place-and-route by content key (see
	// flow.Cache). It complements the per-name singleflight below: the
	// singleflight dedups concurrent requests within this context, while
	// the flow cache persists results across contexts and — with an
	// on-disk directory — across process runs.
	FlowCache *flow.Cache

	mu    sync.Mutex
	impls map[string]*implEntry
}

// implEntry is one singleflight slot of the implementation cache: the first
// caller packs/places/routes under once while concurrent callers for the
// same benchmark block, and the outcome — error included — is kept so a
// failing benchmark fails exactly once.
type implEntry struct {
	once sync.Once
	im   *flow.Implementation
	err  error
}

// NewContext returns a context at the given benchmark scale.
func NewContext(scale float64) *Context {
	if scale <= 0 {
		scale = bench.DefaultScale
	}
	return &Context{
		Kit:         techmodel.Default22nm(),
		Arch:        coffe.DefaultParams(),
		Scale:       scale,
		PlaceEffort: 1.0,
		impls:       map[string]*implEntry{},
	}
}

// ctx resolves the context's cancellation source (nil = never cancels).
func (c *Context) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// gbOptions builds the Algorithm-1 options for one benchmark run, threading
// the context's cancellation and progress callback through to guardband.
func (c *Context) gbOptions(name string, ambientC float64) guardband.Options {
	opts := guardband.DefaultOptions(ambientC)
	opts.Ctx = c.Ctx
	if cb := c.OnProgress; cb != nil {
		opts.OnIteration = func(p guardband.Progress) { cb(name, p) }
	}
	return opts
}

// library lazily builds the corner-device cache.
func (c *Context) library() *thermarch.Library {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Lib == nil {
		c.Lib = thermarch.NewLibrary(c.Kit, c.Arch)
	}
	return c.Lib
}

// Device returns the corner-sized device from the shared cache.
func (c *Context) Device(cornerC float64) (*coffe.Device, error) {
	return c.library().Device(cornerC)
}

// Suite returns the benchmark names the figure drivers will run, in Fig. 6
// order (the Benchmarks restriction applied).
func (c *Context) Suite() []string {
	if len(c.Benchmarks) > 0 {
		return c.Benchmarks
	}
	names := make([]string, 0, len(bench.VTR))
	for _, p := range bench.VTR {
		names = append(names, p.Name)
	}
	return names
}

// implVariant is the shared singleflight slot lookup: every distinct
// spec variant of a benchmark build — the baseline implementation, a
// thermal-place variant, a corner re-target — owns one key, so no driver
// combination (Fig. 6/7/8, sweeps, the thermal-place comparison) ever
// pays the same build twice on one context, flow cache or not.
func (c *Context) implVariant(key string, build func() (*flow.Implementation, error)) (*flow.Implementation, error) {
	c.mu.Lock()
	if c.impls == nil {
		c.impls = map[string]*implEntry{}
	}
	e, ok := c.impls[key]
	if !ok {
		e = &implEntry{}
		c.impls[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.im, e.err = build() })
	return e.im, e.err
}

// Implementation packs/places/routes one benchmark on the D25 device,
// caching the result (the physical implementation is device-independent
// within one architecture, so Fig. 6/7/8 share it).
func (c *Context) Implementation(name string) (*flow.Implementation, error) {
	return c.implVariant(name, func() (*flow.Implementation, error) {
		return c.implement(name, flow.ThermalPlace{}, c.PlaceEffort)
	})
}

// ThermalImplementation is Implementation with thermal-aware placement:
// the same benchmark under a non-zero thermal spec is a distinct
// result-determining variant, cached under its own singleflight key (the
// same weight/radius composition rule as the flow-cache content key). A
// zero spec is exactly the baseline and shares its slot.
func (c *Context) ThermalImplementation(name string, tp flow.ThermalPlace) (*flow.Implementation, error) {
	if tp.Weight <= 0 {
		return c.Implementation(name)
	}
	r := tp.KernelRadius
	if r <= 0 {
		r = thermalest.DefaultRadius
	}
	key := fmt.Sprintf("%s|thermal:w=%g,r=%d", name, tp.Weight, r)
	return c.implVariant(key, func() (*flow.Implementation, error) {
		return c.implement(name, tp, c.PlaceEffort)
	})
}

// implementationAt returns the benchmark's baseline implementation
// re-targeted to another thermal corner, cached per (benchmark, corner):
// Fig8 and Fig8Sweep share one STA/power/thermal re-assembly instead of
// rebuilding it per driver call.
func (c *Context) implementationAt(name string, cornerC float64) (*flow.Implementation, error) {
	if cornerC == 25 {
		return c.Implementation(name)
	}
	key := fmt.Sprintf("%s@%g", name, cornerC)
	return c.implVariant(key, func() (*flow.Implementation, error) {
		im, err := c.Implementation(name)
		if err != nil {
			return nil, err
		}
		dev, err := c.Device(cornerC)
		if err != nil {
			return nil, err
		}
		return im.WithDevice(dev)
	})
}

// FlowOptions is what Implementation and ThermalImplementation build a
// benchmark with: flow.BenchOptions under the context's channel width,
// placement effort, flow cache and cancellation.
func (c *Context) FlowOptions(p bench.Profile, tp flow.ThermalPlace) flow.Options {
	opts := flow.BenchOptions(p)
	opts.PlaceEffort = c.PlaceEffort
	opts.ChannelTracks = c.ChannelTracks
	opts.Cache = c.FlowCache
	opts.Ctx = c.Ctx
	opts.ThermalPlace = tp
	return opts
}

// implement runs the CAD flow for one benchmark at a placement effort (the
// cache-miss path of Implementation).
func (c *Context) implement(name string, tp flow.ThermalPlace, effort float64) (*flow.Implementation, error) {
	dev, err := c.Device(25)
	if err != nil {
		return nil, err
	}
	p, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	opts := c.FlowOptions(p, tp)
	opts.PlaceEffort = effort
	nl, err := bench.Generate(p.Scaled(c.Scale), opts.Seed)
	if err != nil {
		return nil, err
	}
	im, err := flow.Implement(nl, dev, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return im, nil
}

// Series is one plotted line: Y over X.
type Series struct {
	Label string
	X, Y  []float64
}

// Fig1 reproduces "Impact of temperature on the delay of FPGA resources":
// percentage delay increase vs 0 °C for the representative CP, BRAM, and
// DSP of the typical (25 °C-sized) device, swept 0→100 °C.
func (c *Context) Fig1() ([]Series, error) {
	dev, err := c.Device(25)
	if err != nil {
		return nil, err
	}
	xs := sweep(0, 100, 5)
	mk := func(label string, at func(t float64) float64) Series {
		base := at(0)
		s := Series{Label: label, X: xs}
		for _, t := range xs {
			s.Y = append(s.Y, (at(t)/base-1)*100)
		}
		return s
	}
	return []Series{
		mk("CP", func(t float64) float64 { return dev.RepCP(t) }),
		mk("BRAM", func(t float64) float64 { return dev.Delay(coffe.BRAM, t) }),
		mk("DSP", func(t float64) float64 { return dev.Delay(coffe.DSP, t) }),
	}, nil
}

// Fig2Row is one chunk of the paper's Fig. 2: the delays of the three
// corner-optimized devices at one operating temperature, normalized to the
// fastest device in the chunk, for one component.
type Fig2Row struct {
	Component string
	OperateC  float64
	// Normalized delay per sizing corner, keyed by corner.
	Normalized map[float64]float64
}

// Fig2Corners are the sizing corners of the experiment.
var Fig2Corners = []float64{0, 25, 100}

// Fig2 reproduces "Delay of differently optimized FPGA fabrics on different
// temperatures".
func (c *Context) Fig2() ([]Fig2Row, error) {
	devs := map[float64]*coffe.Device{}
	for _, corner := range Fig2Corners {
		d, err := c.Device(corner)
		if err != nil {
			return nil, err
		}
		devs[corner] = d
	}
	comps := []struct {
		name string
		at   func(d *coffe.Device, t float64) float64
	}{
		{"CP", func(d *coffe.Device, t float64) float64 { return d.RepCP(t) }},
		{"BRAM", func(d *coffe.Device, t float64) float64 { return d.Delay(coffe.BRAM, t) }},
		{"DSP", func(d *coffe.Device, t float64) float64 { return d.Delay(coffe.DSP, t) }},
	}
	var rows []Fig2Row
	for _, comp := range comps {
		for _, op := range Fig2Corners {
			row := Fig2Row{Component: comp.name, OperateC: op, Normalized: map[float64]float64{}}
			best := 0.0
			for i, corner := range Fig2Corners {
				d := comp.at(devs[corner], op)
				if i == 0 || d < best {
					best = d
				}
			}
			for _, corner := range Fig2Corners {
				row.Normalized[corner] = comp.at(devs[corner], op) / best
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig3 reproduces "Comparing the temperature-delay relation of the
// representative critical path in differently optimized FPGA fabrics":
// absolute CP delay in ps, 0→100 °C, for D0/D25/D100.
func (c *Context) Fig3() ([]Series, error) {
	xs := sweep(0, 100, 5)
	var out []Series
	for _, corner := range Fig2Corners {
		d, err := c.Device(corner)
		if err != nil {
			return nil, err
		}
		s := Series{Label: fmt.Sprintf("D%.0f", corner), X: xs}
		for _, t := range xs {
			s.Y = append(s.Y, d.RepCP(t))
		}
		out = append(out, s)
	}
	return out, nil
}

// Table1 renders the architecture parameters (Table I).
func (c *Context) Table1() string {
	p := c.Arch
	var b strings.Builder
	fmt.Fprintf(&b, "K                    %d\n", p.K)
	fmt.Fprintf(&b, "N                    %d\n", p.N)
	fmt.Fprintf(&b, "Channel tracks       %d\n", p.ChannelTracks)
	fmt.Fprintf(&b, "Wire segment length  %d\n", p.SegmentLength)
	fmt.Fprintf(&b, "Cluster global inputs %d\n", p.ClusterInputs)
	fmt.Fprintf(&b, "SBmux                %d\n", p.SBMuxSize)
	fmt.Fprintf(&b, "CBmux                %d\n", p.CBMuxSize)
	fmt.Fprintf(&b, "localmux             %d\n", p.LocalMuxSize)
	fmt.Fprintf(&b, "Vdd, Vlow power      %.1fV, %.2fV\n", p.Vdd, p.VddLow)
	fmt.Fprintf(&b, "BRAM                 %dx%d bit\n", p.BRAM.Words, p.BRAM.WordBits)
	return b.String()
}

// Table2 returns the D25 device characterization (Table II).
func (c *Context) Table2() ([]coffe.Characterization, error) {
	dev, err := c.Device(25)
	if err != nil {
		return nil, err
	}
	return dev.CharacterizeAll(), nil
}

// BenchResult is one bar of Fig. 6/7/8.
type BenchResult struct {
	Name    string
	GainPct float64
	// FmaxMHz and BaselineMHz detail the comparison.
	FmaxMHz, BaselineMHz float64
	// Iterations and RiseC record Algorithm 1 convergence behavior.
	Iterations int
	RiseC      float64
	SpreadC    float64
	// Converged is false when Algorithm 1 exhausted MaxIters before the
	// temperature map settled; the reported numbers are then the last
	// iterate, not a converged operating point.
	Converged bool
	// Stats accounts the kernel work (timing probes, thermal solves, wall
	// time) the runs behind this bar performed.
	Stats guardband.Stats
}

// benchResult is the bar of one Algorithm-1 run on benchmark name.
func benchResult(name string, res *guardband.Result) BenchResult {
	return BenchResult{
		Name: name, GainPct: res.GainPct,
		FmaxMHz: res.FmaxMHz, BaselineMHz: res.BaselineMHz,
		Iterations: res.Iterations, RiseC: res.RiseC, SpreadC: res.SpreadC,
		Converged: res.Converged,
		Stats:     res.Stats,
	}
}

// SumStats aggregates the kernel accounting of a result set.
func SumStats(rs []BenchResult) guardband.Stats {
	var s guardband.Stats
	for _, r := range rs {
		s.Add(r.Stats)
	}
	return s
}

// Unconverged returns the names of the results whose Algorithm 1 run did
// not converge, in suite order.
func Unconverged(rs []BenchResult) []string {
	var names []string
	for _, r := range rs {
		if !r.Converged {
			names = append(names, r.Name)
		}
	}
	return names
}

// Average returns the mean gain of a result set (the paper's "average" bar).
func Average(rs []BenchResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range rs {
		s += r.GainPct
	}
	return s / float64(len(rs))
}

// guardbandSuite runs Algorithm 1 per benchmark at one ambient
// temperature, one cell per benchmark.
func (c *Context) guardbandSuite(ambientC float64) ([]BenchResult, error) {
	names := c.Suite()
	return fanOut(c, names, func(i int) (BenchResult, error) {
		im, err := c.Implementation(names[i])
		if err != nil {
			return BenchResult{}, err
		}
		return c.guardbandAt(im, names[i], ambientC)
	})
}

// guardbandAt is one Algorithm-1 cell: im guardbanded at ambientC.
func (c *Context) guardbandAt(im *flow.Implementation, name string, ambientC float64) (BenchResult, error) {
	res, err := im.Guardband(c.gbOptions(name, ambientC))
	if err != nil {
		return BenchResult{}, fmt.Errorf("experiments: %s at %g°C: %w", name, ambientC, err)
	}
	return benchResult(name, res), nil
}

// GuardbandSweep runs Algorithm 1 on one benchmark at each ambient (the
// Fig. 6 → Fig. 7 → Fig. 8 temperature axis): SweepOn over the
// benchmark's implementation.
func (c *Context) GuardbandSweep(name string, ambients []float64) ([]BenchResult, error) {
	if err := guardband.CheckAmbient(ambients...); err != nil {
		return nil, err
	}
	im, err := c.Implementation(name)
	if err != nil {
		return nil, err
	}
	return c.SweepOn(im, name, ambients)
}

// SweepOn guardbands im at each ambient, one cell per ambient, and returns
// one result per ambient in sweep order (the fan-out's partial rule on
// error). Algorithm 1 only reads the implementation, so the cells are
// independent.
func (c *Context) SweepOn(im *flow.Implementation, name string, ambients []float64) ([]BenchResult, error) {
	return fanOut(c, ambientLabels(name, ambients), func(i int) (BenchResult, error) {
		return c.guardbandAt(im, name, ambients[i])
	})
}

// ambientLabels names the cells of one benchmark's ambient axis
// "<bench>@<ambient>".
func ambientLabels(name string, ambients []float64) []string {
	labels := make([]string, len(ambients))
	for i, amb := range ambients {
		labels[i] = fmt.Sprintf("%s@%g", name, amb)
	}
	return labels
}

// Fig6 reproduces "Performance gain of thermal-aware guardbanding at
// T_amb = 25 °C" (paper average: 36.5 %).
func (c *Context) Fig6() ([]BenchResult, error) { return c.guardbandSuite(25) }

// Fig7 reproduces the same at T_amb = 70 °C (paper average: 14 %).
func (c *Context) Fig7() ([]BenchResult, error) { return c.guardbandSuite(70) }

// Fig8 reproduces "Performance improvement of thermal-aware architecture
// optimized for T_amb = 70 °C over the baseline (both employ thermal-aware
// guardbanding)" — the 70 °C-sized fabric vs the typical 25 °C fabric,
// paper average: 6.7 %.
func (c *Context) Fig8() ([]BenchResult, error) {
	names := c.Suite()
	return fanOut(c, names, func(i int) (BenchResult, error) {
		return c.fig8(names[i], names[i], 70)
	})
}

// Fig8Sweep extends Fig. 8 along an ambient axis for one benchmark: one
// row per ambient, in sweep order, each the D70 fabric's gain over D25
// with both guardbanded at that ambient (the fan-out's partial rule on
// error).
func (c *Context) Fig8Sweep(name string, ambients []float64) ([]BenchResult, error) {
	if err := guardband.CheckAmbient(ambients...); err != nil {
		return nil, err
	}
	labels := ambientLabels(name, ambients)
	return fanOut(c, labels, func(i int) (BenchResult, error) {
		return c.fig8(name, labels[i], ambients[i])
	})
}

// fig8 is one Fig. 8 cell: the benchmark guardbanded at ambientC on the
// D25 and the D70 fabric, reported under label as the D70 fabric's
// guardbanded clock over the D25 fabric's.
func (c *Context) fig8(name, label string, ambientC float64) (BenchResult, error) {
	im25, err := c.Implementation(name)
	if err != nil {
		return BenchResult{}, err
	}
	im70, err := c.implementationAt(name, 70)
	if err != nil {
		return BenchResult{}, err
	}
	r25, err := im25.Guardband(c.gbOptions(name, ambientC))
	if err != nil {
		return BenchResult{}, err
	}
	r70, err := im70.Guardband(c.gbOptions(name, ambientC))
	if err != nil {
		return BenchResult{}, err
	}
	r := benchResult(label, r70)
	r.GainPct, r.BaselineMHz = 0, r25.FmaxMHz
	if r25.FmaxMHz > 0 {
		r.GainPct = (r70.FmaxMHz/r25.FmaxMHz - 1) * 100
	}
	r.Converged = r25.Converged && r70.Converged
	r.Stats = r25.Stats
	r.Stats.Add(r70.Stats)
	return r, nil
}

// FormatSeries renders plotted series as aligned columns. Empty input
// yields just the title, and ragged series (fewer Y points than the X axis)
// render "-" for the missing values instead of panicking.
func FormatSeries(title string, ss []Series, yFmt string) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	if len(ss) == 0 {
		fmt.Fprintln(&b, "  (no series)")
		return b.String()
	}
	fmt.Fprintf(&b, "%8s", "T(C)")
	for _, s := range ss {
		fmt.Fprintf(&b, "%12s", s.Label)
	}
	fmt.Fprintln(&b)
	for i := range ss[0].X {
		fmt.Fprintf(&b, "%8.0f", ss[0].X[i])
		for _, s := range ss {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%12s", fmt.Sprintf(yFmt, s.Y[i]))
			} else {
				fmt.Fprintf(&b, "%12s", "-")
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatBench renders a Fig. 6/7/8 result set, flagging benchmarks whose
// Algorithm 1 run exhausted its iteration budget without converging.
func FormatBench(title string, rs []BenchResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	for _, r := range rs {
		warn := ""
		if !r.Converged {
			warn = "  [UNCONVERGED]"
		}
		fmt.Fprintf(&b, "  %-18s %6.1f%%   (fmax %7.1f MHz vs %7.1f MHz, %d iters, rise %.1fC, spread %.1fC)%s\n",
			r.Name, r.GainPct, r.FmaxMHz, r.BaselineMHz, r.Iterations, r.RiseC, r.SpreadC, warn)
	}
	fmt.Fprintf(&b, "  %-18s %6.1f%%\n", "average", Average(rs))
	if un := Unconverged(rs); len(un) > 0 {
		fmt.Fprintf(&b, "  warning: %d of %d benchmarks did not converge: %s\n",
			len(un), len(rs), strings.Join(un, ", "))
	}
	return b.String()
}

// FormatFig2 renders the Fig. 2 chunks.
func FormatFig2(rows []Fig2Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 2: normalized delay per operating temperature (rows) and sizing corner (columns)")
	fmt.Fprintf(&b, "%8s %8s", "comp", "T(C)")
	for _, corner := range Fig2Corners {
		fmt.Fprintf(&b, "%10s", fmt.Sprintf("D%.0f", corner))
	}
	fmt.Fprintln(&b)
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %8.0f", r.Component, r.OperateC)
		corners := make([]float64, 0, len(r.Normalized))
		for corner := range r.Normalized {
			corners = append(corners, corner)
		}
		sort.Float64s(corners)
		for _, corner := range corners {
			fmt.Fprintf(&b, "%10.3f", r.Normalized[corner])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func sweep(lo, hi, step float64) []float64 {
	var xs []float64
	for t := lo; t <= hi+1e-9; t += step {
		xs = append(xs, t)
	}
	return xs
}
