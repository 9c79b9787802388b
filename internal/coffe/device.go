package coffe

import (
	"fmt"
	"math"

	"tafpga/internal/circuits"
	"tafpga/internal/dsp"
	"tafpga/internal/sram"
	"tafpga/internal/stdcell"
	"tafpga/internal/techmodel"
)

// Params are the architectural parameters that shape the sized circuits —
// the paper's Table I.
type Params struct {
	K                 int // LUT inputs
	N                 int // BLEs per cluster
	ChannelTracks     int // routing tracks per channel (W)
	SegmentLength     int // logic blocks spanned per wire segment (L)
	SBMuxSize         int // switch-block mux fan-in
	CBMuxSize         int // connection-block mux fan-in
	LocalMuxSize      int // cluster-local crossbar mux fan-in
	FeedbackMuxSize   int // BLE feedback mux fan-in
	OutputMuxSize     int // BLE output mux fan-in
	ClusterInputs     int // cluster global inputs
	Vdd, VddLow       float64
	BRAM              sram.Config
	DSPWidth          int // hard multiplier operand width
	TilePitchUm       float64
	MonteCarloSamples int // SRAM weakest-cell Monte-Carlo population per bitline (informational; sizing uses the closed form)
}

// DefaultParams returns Table I of the paper.
func DefaultParams() Params {
	return Params{
		K: 6, N: 10, ChannelTracks: 320, SegmentLength: 4,
		SBMuxSize: 12, CBMuxSize: 64, LocalMuxSize: 25,
		FeedbackMuxSize: 10, OutputMuxSize: 2, ClusterInputs: 40,
		Vdd: 0.8, VddLow: 0.95,
		BRAM: sram.DefaultConfig(), DSPWidth: 27,
		// Tile pitch includes the logic cluster (~1196 µm² → 34.6 µm) plus
		// the 320-track routing channels on two sides.
		TilePitchUm: 55, MonteCarloSamples: 5000,
	}
}

// Validate checks the parameter set for internal consistency.
func (p Params) Validate() error {
	switch {
	case p.K < 2 || p.K > 8:
		return fmt.Errorf("coffe: K=%d outside [2,8]", p.K)
	case p.N < 1:
		return fmt.Errorf("coffe: N=%d must be positive", p.N)
	case p.ChannelTracks < 2:
		return fmt.Errorf("coffe: channel tracks %d too small", p.ChannelTracks)
	case p.SegmentLength < 1:
		return fmt.Errorf("coffe: segment length %d must be positive", p.SegmentLength)
	case p.SBMuxSize < 2 || p.CBMuxSize < 2 || p.LocalMuxSize < 2:
		return fmt.Errorf("coffe: mux sizes must be ≥ 2")
	case p.ClusterInputs < p.K:
		return fmt.Errorf("coffe: cluster inputs %d < K=%d", p.ClusterInputs, p.K)
	}
	return p.BRAM.Validate()
}

// ResourceKind identifies one characterized resource class of the device.
type ResourceKind int

const (
	SBMux ResourceKind = iota
	CBMux
	LocalMux
	FeedbackMux
	OutputMux
	LUTA
	BRAM
	DSP
	numKinds
)

var kindNames = [...]string{"SBmux", "CBmux", "localmux", "feedbackmux", "outputmux", "LUTA", "BRAM", "DSP"}

func (k ResourceKind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds returns all resource kinds in Table II order.
func Kinds() []ResourceKind {
	out := make([]ResourceKind, numKinds)
	for i := range out {
		out[i] = ResourceKind(i)
	}
	return out
}

// tabLoC / tabHiC bound the delay/leakage lookup tables; operating
// temperatures outside [tabLoC, tabHiC] = [−10, 120] °C are clamped in table
// queries. guardband.CheckAmbient admits ambients in [−55, 150] °C, so the
// ends of that range get clamped answers (DESIGN §10).
const (
	tabLoC   = -10.0
	tabHiC   = 120.0
	tabStepC = 1.0
)

type lookupTable [int((tabHiC-tabLoC)/tabStepC) + 1]float64

func (t *lookupTable) at(tempC float64) float64 {
	x := (tempC - tabLoC) / tabStepC
	if x <= 0 {
		return t[0]
	}
	if x >= float64(len(t)-1) {
		return t[len(t)-1]
	}
	i := int(x)
	frac := x - float64(i)
	return t[i]*(1-frac) + t[i+1]*frac
}

// Device is a frozen, corner-optimized FPGA fabric characterization: the
// artifact the paper's Fig. 5(a)/(b) flow produces. All delay and leakage
// queries are served from dense per-degree lookup tables built once at
// construction, so the timing/power/thermal loop can probe millions of
// elements cheaply.
type Device struct {
	// CornerC is the junction temperature in °C the fabric was sized for.
	CornerC float64
	Kit     *techmodel.Kit
	Arch    Params

	// The sized circuits (exposed for inspection, reports and tests).
	SB, CB, Local, Feedback, Output *circuits.Mux
	LUT                             *circuits.LUT
	RAM                             *sram.Core
	Mult                            *dsp.Block

	// fanBase holds the structural (wire-stub and fixed) part of each soft
	// circuit's fan-out load in fF; relink adds the size-dependent junction
	// and gate loads of the downstream circuits on top.
	fanBase map[ResourceKind]float64

	delayTab [numKinds]lookupTable
	leakTab  [numKinds]lookupTable
	ceff     [numKinds]float64
	area     [numKinds]float64

	ffClkQTab, ffSetupTab lookupTable
}

// sizable dispatches the per-kind circuit queries during table construction.
func (d *Device) sizable(k ResourceKind) interface {
	Delay(float64) float64
	Leakage(float64) float64
	Area() float64
	CEff() float64
} {
	switch k {
	case SBMux:
		return d.SB
	case CBMux:
		return d.CB
	case LocalMux:
		return d.Local
	case FeedbackMux:
		return d.Feedback
	case OutputMux:
		return d.Output
	case LUTA:
		return d.LUT
	case BRAM:
		return d.RAM
	case DSP:
		return d.Mult
	}
	panic(fmt.Sprintf("coffe: unknown resource kind %d", int(k)))
}

// SizeDevice runs the full sizing flow at the given thermal corner and
// returns the frozen device. It is deterministic.
func SizeDevice(kit *techmodel.Kit, arch Params, cornerC float64) (*Device, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if err := kit.Wire.Validate(); err != nil {
		return nil, err
	}
	d := &Device{CornerC: cornerC, Kit: kit, Arch: arch}

	segUm := float64(arch.SegmentLength) * arch.TilePitchUm
	// Structural fan-out loads: wire stubs at the far end plus fixed pin
	// parasitics; the size-dependent junction/gate loads of the downstream
	// circuits are layered on by relink.
	d.fanBase = map[ResourceKind]float64{
		SBMux: 8, CBMux: 4, LocalMux: 2, FeedbackMux: 5, OutputMux: 2,
		LUTA: 2,
	}
	// Initial inter-circuit linkage; refined after the first sizing pass.
	drive := 1.8
	d.SB = circuits.NewMux("SBmux", kit, arch.SBMuxSize, segUm, d.fanBase[SBMux], drive)
	d.CB = circuits.NewMux("CBmux", kit, arch.CBMuxSize, 0.5*arch.TilePitchUm, d.fanBase[CBMux], drive)
	d.Local = circuits.NewMux("localmux", kit, arch.LocalMuxSize, 0.22*arch.TilePitchUm, d.fanBase[LocalMux], drive)
	d.Feedback = circuits.NewMux("feedbackmux", kit, arch.FeedbackMuxSize, 0.5*arch.TilePitchUm, d.fanBase[FeedbackMux], drive)
	d.Output = circuits.NewMux("outputmux", kit, arch.OutputMuxSize, 0.12*arch.TilePitchUm, d.fanBase[OutputMux], drive)
	d.LUT = circuits.NewLUT("LUTA", kit, arch.K, 0.15*arch.TilePitchUm, d.fanBase[LUTA], drive)
	d.RAM = sram.NewCore("BRAM", kit, arch.BRAM, cornerC)
	d.Mult = dsp.NewBlockWidth(kit, arch.DSPWidth)

	// Two global passes: size every circuit, then refresh the
	// driver/fan-out linkage from the sized results and re-size.
	for pass := 0; pass < 2; pass++ {
		for _, c := range []circuits.Sizable{d.SB, d.CB, d.Local, d.Feedback, d.Output, d.LUT} {
			sizeCircuit(c, cornerC, 3, areaExponent)
		}
		sizeCircuit(d.RAM, cornerC, 3, bramAreaExponent)
		d.sizeDSP(cornerC)
		d.relink()
	}

	d.buildTables()
	return d, nil
}

// MustSizeDevice is SizeDevice for contexts (tests, examples) where the
// default parameters are known to be valid.
func MustSizeDevice(kit *techmodel.Kit, arch Params, cornerC float64) *Device {
	d, err := SizeDevice(kit, arch, cornerC)
	if err != nil {
		panic(err)
	}
	return d
}

// sizeDSP tunes the DSP synthesis knobs — drive-strength scale and P:N
// skew — at the corner with the same delay·areaᵉ objective.
func (d *Device) sizeDSP(cornerC float64) {
	for sweep := 0; sweep < 3; sweep++ {
		d.Mult.DriveScale = goldenMin(func(s float64) float64 {
			d.Mult.DriveScale = s
			return math.Pow(d.Mult.Area(), areaExponent) * d.Mult.Delay(cornerC)
		}, 0.35, 4.0)
		d.Mult.PNSkew = goldenMin(func(x float64) float64 {
			d.Mult.PNSkew = x
			return d.Mult.Delay(cornerC) // skew is area-neutral
		}, 0.35, 0.9)
	}
}

// relink refreshes the driver widths and fan-out loads that couple the
// circuits: each mux is driven by the output buffer of its upstream
// resource, and each output buffer sees the pass-transistor junctions and
// gates of its downstream muxes.
func (d *Device) relink() {
	k := d.Kit
	sbW := d.SB.Vars()
	lutW := d.LUT.Vars()
	localW := d.Local.Vars()
	cbW := d.CB.Vars()

	// A routing segment is tapped by switch-block and connection-block mux
	// inputs along its span: at each of the SegmentLength tiles it passes,
	// a share of SB and CB mux input junctions hang off the wire.
	taps := float64(d.Arch.SegmentLength)
	d.SB.DriveUm = sbW[2]
	d.SB.FanoutFF = d.fanBase[SBMux] + taps*(2*k.Pass.Cj(sbW[0])+4*k.Pass.Cj(cbW[0]))
	d.CB.DriveUm = sbW[2]
	d.CB.FanoutFF = d.fanBase[CBMux] + 4*k.Pass.Cj(localW[0])
	d.Local.DriveUm = cbW[2]
	d.Local.FanoutFF = d.fanBase[LocalMux] + k.Pass.Cj(lutW[0])
	d.Feedback.DriveUm = d.Output.Vars()[2]
	d.Feedback.FanoutFF = d.fanBase[FeedbackMux] + 6*k.Pass.Cj(localW[0])
	d.LUT.DriveUm = localW[2]
	d.LUT.FanoutFF = d.fanBase[LUTA] + k.Pass.Cj(d.Output.Vars()[0])
	d.Output.DriveUm = lutW[3]
	d.Output.FanoutFF = d.fanBase[OutputMux] + k.Pass.Cj(sbW[0])
}

// buildTables freezes the per-kind delay/leakage lookup tables and scalars.
func (d *Device) buildTables() {
	for _, k := range Kinds() {
		c := d.sizable(k)
		for i := range d.delayTab[k] {
			t := tabLoC + float64(i)*tabStepC
			d.delayTab[k][i] = c.Delay(t)
			d.leakTab[k][i] = c.Leakage(t)
		}
		d.ceff[k] = c.CEff()
		d.area[k] = c.Area()
	}
	for i := range d.ffClkQTab {
		t := tabLoC + float64(i)*tabStepC
		lib := stdcell.Characterize(d.Kit, t)
		d.ffClkQTab[i] = lib.ClkToQ(3)
		d.ffSetupTab[i] = lib.Setup()
	}
}

// Delay returns the propagation delay in ps of one resource of kind k at
// junction temperature tempC (linear interpolation on a 1 °C grid).
func (d *Device) Delay(k ResourceKind, tempC float64) float64 { return d.delayTab[k].at(tempC) }

// Leak returns the static power in µW of one resource of kind k at tempC.
func (d *Device) Leak(k ResourceKind, tempC float64) float64 { return d.leakTab[k].at(tempC) }

// CEff returns the switched capacitance in fF per output transition of one
// resource of kind k.
func (d *Device) CEff(k ResourceKind) float64 { return d.ceff[k] }

// Area returns the layout area in µm² of one resource of kind k.
func (d *Device) Area(k ResourceKind) float64 { return d.area[k] }

// FFClkToQ returns the BLE flip-flop clock-to-Q delay in ps at tempC.
func (d *Device) FFClkToQ(tempC float64) float64 { return d.ffClkQTab.at(tempC) }

// FFSetup returns the BLE flip-flop setup time in ps at tempC.
func (d *Device) FFSetup(tempC float64) float64 { return d.ffSetupTab.at(tempC) }

// repWeight is one representative-path component weight.
type repWeight struct {
	kind   ResourceKind
	weight float64
}

// repWeights are the occurrence probabilities of each soft-fabric resource
// on a representative critical path (the paper's [23]-style weighting used
// for Fig. 1 and Fig. 3). The slice keeps summation order fixed so repeated
// evaluations are bit-identical.
var repWeights = []repWeight{
	{SBMux, 0.62}, {CBMux, 0.13}, {LocalMux, 0.10},
	{LUTA, 0.10}, {OutputMux, 0.02}, {FeedbackMux, 0.03},
}

// RepCP returns the representative soft-fabric critical-path delay in ps at
// tempC: the occurrence-weighted average of the configurable components.
func (d *Device) RepCP(tempC float64) float64 {
	sum := 0.0
	for _, rw := range repWeights {
		sum += rw.weight * d.Delay(rw.kind, tempC)
	}
	return sum
}

// ExpectedRepCP integrates RepCP over a uniform operating range — Eq. (1) of
// the paper, used by the thermal-aware architecture selection.
func (d *Device) ExpectedRepCP(tMinC, tMaxC float64) float64 {
	if tMaxC < tMinC {
		panic(fmt.Sprintf("coffe: invalid temperature range [%g, %g]", tMinC, tMaxC))
	}
	if tMaxC == tMinC {
		return d.RepCP(tMinC)
	}
	const steps = 200
	h := (tMaxC - tMinC) / steps
	sum := 0.5 * (d.RepCP(tMinC) + d.RepCP(tMaxC))
	for i := 1; i < steps; i++ {
		sum += d.RepCP(tMinC + float64(i)*h)
	}
	return sum * h / (tMaxC - tMinC)
}

// SoftTileArea returns the area in µm² of one logic tile (cluster plus its
// share of routing), the quantity the paper quotes as ~1196 µm².
func (d *Device) SoftTileArea() float64 {
	c := d.Arch.tileCounts()
	a := 0.0
	for k, n := range c {
		if k != BRAM && k != DSP {
			a += float64(n) * d.Area(k)
		}
	}
	// Flip-flops, then clock network and configuration overhead.
	lib := stdcell.Characterize(d.Kit, techmodel.T0)
	a += float64(d.Arch.N) * lib.Cell(stdcell.DFF).AreaUm2
	return a * 1.30
}

// tileCounts returns how many of each soft resource one logic tile holds.
func (p Params) tileCounts() map[ResourceKind]int {
	sbPerTile := p.ChannelTracks / (2 * p.SegmentLength) * 2 // both channel directions
	return map[ResourceKind]int{
		SBMux:       sbPerTile,
		CBMux:       p.ClusterInputs,
		LocalMux:    p.N * p.K,
		FeedbackMux: p.N,
		OutputMux:   2 * p.N,
		LUTA:        p.N,
	}
}

// TileLeak returns the static power in µW of one tile of the given type at
// tempC. Tile types follow the architecture grid: logic, BRAM, or DSP. BRAM
// and DSP tiles include the routing interface (SB/CB muxes) of the column.
func (d *Device) TileLeak(tile TileClass, tempC float64) float64 {
	counts := d.Arch.tileCounts()
	routing := float64(counts[SBMux])*d.Leak(SBMux, tempC) + float64(counts[CBMux])*d.Leak(CBMux, tempC)
	switch tile {
	case TileLogic:
		l := routing
		l += float64(counts[LocalMux]) * d.Leak(LocalMux, tempC)
		l += float64(counts[FeedbackMux]) * d.Leak(FeedbackMux, tempC)
		l += float64(counts[OutputMux]) * d.Leak(OutputMux, tempC)
		l += float64(counts[LUTA]) * d.Leak(LUTA, tempC)
		lib := stdcell.Characterize(d.Kit, tempC)
		l += float64(d.Arch.N) * lib.Cell(stdcell.DFF).LeakUW
		return l
	case TileBRAM:
		return routing + d.Leak(BRAM, tempC)
	case TileDSP:
		return routing + d.Leak(DSP, tempC)
	case TileIO, TileEmpty:
		return 0.3 * routing
	}
	panic(fmt.Sprintf("coffe: unknown tile class %d", int(tile)))
}

// TileClass distinguishes the physical tile types on the FPGA grid.
type TileClass int

const (
	TileLogic TileClass = iota
	TileBRAM
	TileDSP
	TileIO
	TileEmpty
)

func (t TileClass) String() string {
	switch t {
	case TileLogic:
		return "logic"
	case TileBRAM:
		return "bram"
	case TileDSP:
		return "dsp"
	case TileIO:
		return "io"
	case TileEmpty:
		return "empty"
	}
	return fmt.Sprintf("TileClass(%d)", int(t))
}

// DelayExact bypasses the lookup table and evaluates the underlying circuit
// model; tests use it to bound interpolation error.
func (d *Device) DelayExact(k ResourceKind, tempC float64) float64 {
	return d.sizable(k).Delay(tempC)
}

// Vars returns the sized widths of a soft-fabric circuit for reports.
func (d *Device) Vars(k ResourceKind) []float64 {
	switch k {
	case SBMux:
		return d.SB.Vars()
	case CBMux:
		return d.CB.Vars()
	case LocalMux:
		return d.Local.Vars()
	case FeedbackMux:
		return d.Feedback.Vars()
	case OutputMux:
		return d.Output.Vars()
	case LUTA:
		return d.LUT.Vars()
	case BRAM:
		return d.RAM.Vars()
	case DSP:
		return []float64{d.Mult.DriveScale}
	}
	panic(fmt.Sprintf("coffe: unknown resource kind %d", int(k)))
}
