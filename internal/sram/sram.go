// Package sram models the FPGA Block RAM core at the level the paper's flow
// needs: read-path delay, leakage, area, and switched capacitance as
// functions of junction temperature, for a core whose transistor sizes were
// chosen at a specific thermal corner.
//
// The read path is decoder → wordline → bitline → sense amplifier → column
// mux/output driver. Following the paper (and its reference [29]), sizing
// must know the leakage of the *weakest* SRAM cell at the target
// temperature: every un-accessed cell on a bitline leaks against the access
// current of the selected cell, so the usable differential develops at
//
//	I_eff(T) = I_cell(T) − (rows−1)·I_leak_weakest(T)
//
// A core sized for a hot corner buys margin with wider cells and a larger
// sense threshold; the same core evaluated cold drags extra wordline and
// bitline capacitance. A core sized cold collapses its sense margin when
// evaluated hot. This asymmetry is why BRAM is the most corner-sensitive
// block in the paper's Fig. 2.
package sram

import (
	"fmt"
	"math"

	"tafpga/internal/techmodel"
)

const rcLn2 = 0.69

// Config fixes the BRAM organization (the paper's Table I: 1024 × 32 bit).
type Config struct {
	// Words and WordBits give the logical geometry; Words×WordBits cells.
	Words    int
	WordBits int
	// ColMux is the column-multiplexing factor; physical columns =
	// WordBits × ColMux, physical rows = Words / ColMux.
	ColMux int
	// SenseMV is the bitline differential in mV the sense amplifier needs.
	SenseMV float64
	// CellWidthUm is the cell pitch along the wordline direction in µm.
	CellWidthUm float64
	// CellHeightUm is the cell pitch along the bitline direction in µm. It
	// is kept small so the bitline capacitance is dominated by cell
	// junctions rather than wire — which is what makes the access-current /
	// bitline-cap ratio size-independent and lets the weak-cell leakage
	// margin drive the corner-dependent cell sizing.
	CellHeightUm float64
}

// DefaultConfig matches Table I: a 32 Kb block organized 256 rows ×
// 128 columns with 4:1 column muxing.
func DefaultConfig() Config {
	return Config{Words: 1024, WordBits: 32, ColMux: 4, SenseMV: 200, CellWidthUm: 1.7, CellHeightUm: 0.5}
}

// Rows returns the physical row count.
func (c Config) Rows() int { return c.Words / c.ColMux }

// Cols returns the physical column count.
func (c Config) Cols() int { return c.WordBits * c.ColMux }

// Validate checks the organization is internally consistent.
func (c Config) Validate() error {
	if c.Words <= 0 || c.WordBits <= 0 || c.ColMux <= 0 {
		return fmt.Errorf("sram: non-positive geometry %+v", c)
	}
	if c.Words%c.ColMux != 0 {
		return fmt.Errorf("sram: words %d not divisible by column mux %d", c.Words, c.ColMux)
	}
	if c.SenseMV <= 0 {
		return fmt.Errorf("sram: non-positive sense margin %g mV", c.SenseMV)
	}
	return nil
}

// Core is a sizable BRAM core. Sizing variables: cell access width, wordline
// driver width, decoder stage width, sense-amp device width, output driver
// width — the knobs COFFE exposes for its memory generator.
type Core struct {
	name string
	kit  *techmodel.Kit
	cfg  Config

	// SizingTempC is the thermal corner the weakest-cell leakage margin is
	// evaluated at *during sizing*. The frozen core is afterwards evaluated
	// at arbitrary operating temperatures.
	SizingTempC float64

	wCell, wWL, wDec, wSA, wOut float64
	// pnSplit is the P:N width split shared by the wordline and output
	// drivers (see techmodel.Kit.WorstEdgeRon).
	pnSplit float64

	// weakFactor caches techmodel.WeakestLeakFactor for the current wCell,
	// kit.SRAM and row count; it is independent of temperature, so every
	// delay probe reuses it. Refreshed by NewCore, WithKit and SetVars.
	weakFactor float64
}

// NewCore returns a BRAM core with default sizes for the given organization.
func NewCore(name string, kit *techmodel.Kit, cfg Config, sizingTempC float64) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		name: name, kit: kit, cfg: cfg, SizingTempC: sizingTempC,
		wCell: 0.45, wWL: 3.0, wDec: 0.8, wSA: 0.8, wOut: 2.0,
		pnSplit: kit.NominalSplit(),
	}
	c.refreshWeakFactor()
	return c
}

// refreshWeakFactor recomputes the cached weakest-cell leakage factor.
func (c *Core) refreshWeakFactor() {
	c.weakFactor = techmodel.WeakestLeakFactor(&c.kit.SRAM, c.wCell, c.cfg.Rows())
}

func (c *Core) Name() string   { return c.name }
func (c *Core) Config() Config { return c.cfg }

// WithKit returns a copy of the core evaluated against a different process
// kit — typically one derived at another core-logic supply. The sized widths
// and organization are carried over unchanged; note the SRAM array flavor
// keeps its own low-power rail under Kit.AtVdd, so only the peripheral
// (decoder, wordline, sense, output) characterization actually moves.
func (c *Core) WithKit(kit *techmodel.Kit) *Core {
	out := *c
	out.kit = kit
	out.refreshWeakFactor()
	return &out
}
func (c *Core) Vars() []float64 {
	return []float64{c.wCell, c.wWL, c.wDec, c.wSA, c.wOut, c.pnSplit}
}

func (c *Core) SetVars(v []float64) {
	if len(v) != 6 {
		panic(fmt.Sprintf("sram: core expects 6 sizing variables, got %d", len(v)))
	}
	wCell := c.wCell
	c.wCell, c.wWL, c.wDec, c.wSA, c.wOut, c.pnSplit = v[0], v[1], v[2], v[3], v[4], v[5]
	if c.wCell != wCell {
		c.refreshWeakFactor()
	}
}

func (c *Core) Bounds() (lo, hi []float64) {
	return []float64{0.08, 0.5, 0.2, 0.2, 0.5, 0.35}, []float64{0.9, 12, 6, 6, 12, 0.9}
}

// senseBeta converts the weak-cell leakage fraction at the sizing corner
// into extra sense-amplifier threshold: the SA must discriminate the real
// differential from the leakage-induced droop on unselected bitlines, so a
// hot-corner design carries a permanently higher threshold (slower when run
// cold), while a cold-corner design's slim threshold leaves it exposed when
// run hot.
const senseBeta = 0.5

// maxSizingLeakFraction is the functional sizing constraint: a design whose
// weakest-cell bitline leakage eats more than this share of the read
// current *at its sizing corner* does not meet the memory compiler's sense
// margin and is rejected (infinite delay) during optimization. This is what
// forces a hot-corner core to buy margin with wider (lower-σ) cells.
const maxSizingLeakFraction = 0.6

// leakFraction returns (rows−1)·I_weakest(T) / I_cell(T), the share of the
// cell read current eaten by aggregate bitline leakage at temperature T.
func (c *Core) leakFraction(tempC float64) float64 {
	rows := float64(c.cfg.Rows())
	return (rows - 1) * c.weakLeakCurrent(tempC) / c.cellCurrent(tempC)
}

// cellCurrent returns the read current in mA of the selected cell. The
// access transistor and pull-down are in series, and the bitline contact
// and local interconnect resistance do not scale with the cell, so the
// read current grows sub-linearly with drawn width — upsizing a cell buys
// variability margin (Pelgrom) faster than it buys current, which is why
// cold-sized cores stay small while hot-sized cores pay a cold-corner
// penalty for their wide cells (the paper's Fig. 2 BRAM asymmetry).
func (c *Core) cellCurrent(tempC float64) float64 {
	wEff := math.Pow(c.wCell/0.15, 0.65) * 0.15
	r := 2 * c.kit.SRAM.Ron(wEff, tempC) // kΩ
	return c.kit.SRAM.Vdd / r            // V/kΩ = mA
}

// weakLeakCurrent returns the statistically weakest cell's leakage in mA at
// tempC, using the deterministic extreme-value closed form over the cells
// sharing one bitline. It is techmodel.ExpectedWeakestLeak with the
// temperature-independent factor taken from the cache, so the product is
// the same to the bit.
func (c *Core) weakLeakCurrent(tempC float64) float64 {
	pw := c.kit.SRAM.Leak(c.wCell, tempC) * c.weakFactor
	return pw / c.kit.SRAM.Vdd * 1e-3 // µW/V = µA → mA
}

// bitlineDelay returns the time in ps for the selected cell to develop the
// sense differential against aggregate bitline leakage at tempC, for a core
// whose sense threshold was fixed at the sizing corner. It returns +Inf when
// the margin has collapsed (a cold-sized core evaluated very hot); the
// sizing objective treats that as an infeasible point.
func (c *Core) bitlineDelay(tempC float64) float64 {
	rows := float64(c.cfg.Rows())
	cBL := rows*c.kit.SRAM.Cj(c.wCell) + c.kit.Wire.C(rows*c.cfg.CellHeightUm) + c.kit.Cell.Cj(c.wSA)

	// Functional constraint and frozen sense threshold, both evaluated at
	// the sizing corner (they are properties of the design, not of the
	// operating point).
	frSizing := c.leakFraction(c.SizingTempC)
	if frSizing > maxSizingLeakFraction {
		return math.Inf(1)
	}
	deltaV := c.cfg.SenseMV / 1000 * (1 + senseBeta*frSizing)

	// Leakage erodes the usable read current. The erosion saturates: once
	// the static droop dominates, the precharge keepers and the column
	// circuitry bound how much of the differential window leakage can eat,
	// so an off-corner device degrades severely but does not diverge.
	const minDriveFraction = 0.30
	drive := 1 - c.leakFraction(tempC)
	if drive < minDriveFraction {
		drive = minDriveFraction
	}
	iEff := c.cellCurrent(tempC) * drive
	// V · fF / mA = ps.
	return deltaV * cBL / iEff
}

// Delay returns the read access time in ps at tempC.
func (c *Core) Delay(tempC float64) float64 {
	k := c.kit
	// Decoder: log2(rows) levels folded into 3 logic stages plus the
	// pre-driver, all in the cell flavor.
	levels := math.Log2(float64(c.cfg.Rows()))
	rDec := k.Cell.Ron(c.wDec, tempC)
	cDec := k.Cell.Cj(c.wDec) + k.Cell.Cg(c.wDec)
	dec := rcLn2 * rDec * cDec * (levels / 2)
	// Address pre-driver (fixed upstream drive) charging the decoder gates:
	// this is the delay cost of oversizing the decoder.
	dec += rcLn2 * k.BalancedRon(2.0, tempC) * 3 * k.Cell.Cg(c.wDec)
	dec += rcLn2 * k.Cell.Ron(c.wDec, tempC) * k.Buf.Cg(c.wWL)

	// Wordline: driver charges all column access gates plus the row wire.
	cols := float64(c.cfg.Cols())
	rowWire := cols * c.cfg.CellWidthUm
	cWL := cols*k.SRAM.Cg(c.wCell) + k.Wire.C(rowWire)
	wl := rcLn2 * (k.WorstEdgeRon(c.wWL, c.pnSplit, tempC)*(k.Buf.Cj(c.wWL)+cWL) + k.Wire.ElmoreWire(rowWire, tempC, cols*k.SRAM.Cg(c.wCell)/2))

	bl := c.bitlineDelay(tempC)

	// Sense amp: regenerative stage; wider devices resolve faster.
	sa := rcLn2 * k.Cell.Ron(c.wSA, tempC) * (3*k.Cell.Cj(c.wSA) + k.Cell.Cg(c.wOut))

	// Column mux + output driver onto the BRAM output pin.
	out := rcLn2 * k.WorstEdgeRon(c.wOut, c.pnSplit, tempC) * (k.Buf.Cj(c.wOut) + 12 + k.Wire.C(20))

	return dec + wl + bl + sa + out
}

// Area returns the macro area in µm².
func (c *Core) Area() float64 {
	k := c.kit
	cellArea := 6 * (k.SRAM.Area(c.wCell) + 0.012) // 6T cell
	a := float64(c.cfg.Rows()*c.cfg.Cols()) * cellArea
	a += float64(c.cfg.Rows()) * (k.Buf.Area(c.wWL) + k.Cell.Area(c.wDec)*3)
	a += float64(c.cfg.Cols()) * (k.Cell.Area(c.wSA) + 0.3)
	a += float64(c.cfg.WordBits) * k.Buf.Area(c.wOut) * 2
	return a
}

// Leakage returns the static power in µW of the whole macro at tempC.
func (c *Core) Leakage(tempC float64) float64 {
	k := c.kit
	cells := float64(c.cfg.Rows() * c.cfg.Cols())
	l := cells * k.SRAM.Leak(c.wCell*1.2, tempC) // 2 of 6 devices leak per cell
	l += float64(c.cfg.Rows()) * k.Buf.Leak(c.wWL*0.3, tempC)
	l += float64(c.cfg.Cols()) * k.Cell.Leak(c.wSA*0.5, tempC)
	l += float64(c.cfg.WordBits) * k.Buf.Leak(c.wOut*0.5, tempC)
	return l
}

// CEff returns the switched capacitance in fF per read access: one wordline,
// the sensed (column-selected) bitlines at partial swing, sense amps and
// output drivers. Unselected columns are precharge-clamped.
func (c *Core) CEff() float64 {
	k := c.kit
	cols := float64(c.cfg.Cols())
	rows := float64(c.cfg.Rows())
	cWL := cols*k.SRAM.Cg(c.wCell) + k.Wire.C(cols*c.cfg.CellWidthUm)
	cBL := rows*c.kit.SRAM.Cj(c.wCell) + k.Wire.C(rows*c.cfg.CellHeightUm)
	swing := c.cfg.SenseMV / 1000 / k.SRAM.Vdd
	cOut := float64(c.cfg.WordBits) * (k.Buf.Cg(c.wOut) + k.Buf.Cj(c.wOut) + 15)
	return cWL + float64(c.cfg.WordBits)*cBL*swing + cOut
}

// MarginOK reports whether the sense margin is feasible at tempC, i.e. the
// selected cell out-drives aggregate weakest-cell bitline leakage.
func (c *Core) MarginOK(tempC float64) bool { return !math.IsInf(c.bitlineDelay(tempC), 1) }
