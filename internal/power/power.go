// Package power builds the per-tile power vector the thermal simulator
// consumes (the paper's "in-house script" in Fig. 5(c)): dynamic power from
// the routed resource usage, per-net switching activity, and the operating
// frequency (½·α·C·V²·f with the device's per-resource effective
// capacitances), plus leakage from the device's temperature-dependent
// per-tile models. Routing information matters: the SB/CB hops of every net
// deposit dynamic power in the tiles they physically traverse.
package power

import (
	"sort"

	"tafpga/internal/activity"
	"tafpga/internal/arch"
	"tafpga/internal/coffe"
	"tafpga/internal/netlist"
	"tafpga/internal/place"
	"tafpga/internal/route"
)

// Model precomputes the activity-weighted switched capacitance per tile so
// the guardbanding loop can re-evaluate power at a new (f, T) cheaply.
type Model struct {
	Dev  *coffe.Device
	PL   *place.Placement
	NL   *netlist.Netlist
	RT   *route.Result
	Act  []activity.Stats
	Vdd  float64
	VddL float64

	// dynPerMHz[tile] is dynamic power in µW per MHz of clock at each tile
	// (α and C folded in).
	dynPerMHz []float64
}

// New builds the power model for one routed implementation.
func New(dev *coffe.Device, nl *netlist.Netlist, pl *place.Placement, rt *route.Result, act []activity.Stats) *Model {
	m := &Model{
		Dev: dev, PL: pl, NL: nl, RT: rt, Act: act,
		Vdd: dev.Kit.Buf.Vdd, VddL: dev.Kit.SRAM.Vdd,
	}
	m.buildDynamic()
	return m
}

// dynUW returns µW for a switched capacitance of cFF at activity alpha,
// voltage v, and 1 MHz (scaled by frequency later): ½αCV²f.
func dynUWPerMHz(cFF, alpha, v float64) float64 {
	return 0.5 * alpha * cFF * 1e-15 * v * v * 1e6 * 1e6 // fF→F, f=1e6 Hz, W→µW
}

// buildDynamic deposits every block's and every routed hop's
// activity-weighted capacitance into its tile.
func (m *Model) buildDynamic() {
	m.dynPerMHz = make([]float64, m.PL.Grid.NumTiles())
	dev := m.Dev
	add := func(tile int, cFF, alpha, v float64) {
		m.dynPerMHz[tile] += float64(dynUWPerMHz(cFF, alpha, v))
	}

	for i := range m.NL.Blocks {
		b := &m.NL.Blocks[i]
		tile := m.PL.TileOf[i]
		if tile < 0 {
			continue
		}
		alpha := m.Act[i].Density
		switch b.Type {
		case netlist.LUT:
			add(tile, dev.CEff(coffe.LUTA), alpha, m.Vdd)
			// Local crossbar activity of its input pins.
			for _, in := range b.Inputs {
				add(tile, dev.CEff(coffe.LocalMux), m.Act[in].Density, m.Vdd)
			}
		case netlist.FF:
			// Clock pin toggles every cycle; data at its own rate.
			add(tile, 10, 1.0, m.Vdd)
			add(tile, 6, m.Act[b.Inputs[0]].Density, m.Vdd)
		case netlist.BRAM:
			add(tile, dev.CEff(coffe.BRAM), 0.5+float64(0.5*alpha), m.VddL)
		case netlist.DSP:
			add(tile, dev.CEff(coffe.DSP), alpha, m.Vdd)
		}
	}

	// Routed interconnect: every hop's mux+wire capacitance switches with
	// the net's activity, in the hop's tile, after the driver's output mux.
	m.walkNets(func(d int, hops []route.Hop) {
		alpha := m.Act[d].Density
		add(m.PL.TileOf[d], dev.CEff(coffe.OutputMux), alpha, m.Vdd)
		for _, h := range hops {
			add(h.Tile, dev.CEff(h.Kind), alpha, m.Vdd)
		}
	})

	// Clock distribution: a fixed per-occupied-tile spine load.
	for i := range m.NL.Blocks {
		if t := m.PL.TileOf[i]; t >= 0 && m.NL.Blocks[i].Type == netlist.FF {
			add(t, 4, 1.0, m.Vdd)
		}
	}
}

// VectorInto returns the per-tile power in µW at clock fMHz and per-tile
// temperatures temps (leakage is temperature-dependent; dynamic power
// scales linearly with frequency, as the paper scales the COFFE numbers).
// When dst has the tile count it is overwritten and returned, otherwise a
// fresh vector is allocated. Every entry is the same expression either way,
// so reusing a buffer (the guardband loop re-evaluates power every
// iteration) cannot change a single bit of the result.
func (m *Model) VectorInto(fMHz float64, temps, dst []float64) []float64 {
	grid := m.PL.Grid
	if len(dst) != grid.NumTiles() {
		dst = make([]float64, grid.NumTiles())
	}
	for tile := 0; tile < grid.NumTiles(); tile++ {
		dst[tile] = float64(m.dynPerMHz[tile]*fMHz) + m.Dev.TileLeak(grid.ClassAt(tile), temps[tile])
	}
	return dst
}

// BasePowerUW returns the device's idle (leakage-only) power at a uniform
// temperature — the p_base of the paper's XPE cross-validation.
func (m *Model) BasePowerUW(tempC float64) float64 { return BaseUW(m.Dev, m.PL.Grid, tempC) }

// BaseUW returns the idle (leakage-only) power in µW of every tile of grid
// on dev at a uniform temperature tempC, summed in tile order. It needs no
// placement, so the thermal model a placer calibrates before any placement
// exists is the one every later model of the same grid uses.
func BaseUW(dev *coffe.Device, grid *arch.Grid, tempC float64) float64 {
	total := 0.0
	for tile := 0; tile < grid.NumTiles(); tile++ {
		total += dev.TileLeak(grid.ClassAt(tile), tempC)
	}
	return total
}

// TotalUW sums a power vector.
func TotalUW(p []float64) float64 {
	t := 0.0
	for _, v := range p {
		t += v
	}
	return t
}

// Breakdown attributes the design's power at (fMHz, temps) to categories:
// dynamic interconnect, dynamic logic, dynamic macros and clocking, and
// leakage — the XPE-style summary view.
type Breakdown struct {
	DynLogicUW    float64
	DynRoutingUW  float64
	DynMacroUW    float64
	DynClockingUW float64
	LeakUW        float64
}

// TotalUW sums the categories.
func (b Breakdown) TotalUW() float64 {
	return b.DynLogicUW + b.DynRoutingUW + b.DynMacroUW + b.DynClockingUW + b.LeakUW
}

// Report recomputes the per-category power at the given frequency and
// temperatures. Unlike VectorInto it walks the netlist again, so it is meant
// for reporting, not for the guardbanding inner loop.
func (m *Model) Report(fMHz float64, temps []float64) Breakdown {
	var b Breakdown
	grid := m.PL.Grid
	for tile := 0; tile < grid.NumTiles(); tile++ {
		b.LeakUW += m.Dev.TileLeak(grid.ClassAt(tile), temps[tile])
	}
	dev := m.Dev
	// dyn is one deposit's µW at fMHz, rounded before it is summed so that
	// no target fuses the multiply into the add.
	dyn := func(cFF, alpha, v float64) float64 { return float64(dynUWPerMHz(cFF, alpha, v) * fMHz) }
	for i := range m.NL.Blocks {
		blk := &m.NL.Blocks[i]
		if m.PL.TileOf[i] < 0 {
			continue
		}
		alpha := m.Act[i].Density
		switch blk.Type {
		case netlist.LUT:
			b.DynLogicUW += dyn(dev.CEff(coffe.LUTA), alpha, m.Vdd)
			for _, in := range blk.Inputs {
				b.DynLogicUW += dyn(dev.CEff(coffe.LocalMux), m.Act[in].Density, m.Vdd)
			}
		case netlist.FF:
			b.DynClockingUW += dyn(10, 1.0, m.Vdd)
			b.DynClockingUW += dyn(4, 1.0, m.Vdd)
			b.DynLogicUW += dyn(6, m.Act[blk.Inputs[0]].Density, m.Vdd)
		case netlist.BRAM:
			b.DynMacroUW += dyn(dev.CEff(coffe.BRAM), 0.5+float64(0.5*alpha), m.VddL)
		case netlist.DSP:
			b.DynMacroUW += dyn(dev.CEff(coffe.DSP), alpha, m.Vdd)
		}
	}
	m.walkNets(func(d int, hops []route.Hop) {
		alpha := m.Act[d].Density
		b.DynRoutingUW += dyn(dev.CEff(coffe.OutputMux), alpha, m.Vdd)
		for _, h := range hops {
			b.DynRoutingUW += dyn(dev.CEff(h.Kind), alpha, m.Vdd)
		}
	})
	return b
}

// walkNets calls visit once per routed net, in ascending driver order, with
// the net's distinct hops: its sinks' paths are walked in ascending sink
// order and a (tile, kind) already reached through an earlier sink is left
// out, so tree wires the paths share are counted once. Callers accumulate
// float64 sums over the walk, and the fixed order keeps those sums — the
// power vector and everything thermal downstream of it — the same bits on
// every run. Duplicates are marked in one stamp array over (tile, kind).
// visit must not keep hops: the slice is reused for the next net.
func (m *Model) walkNets(visit func(driver int, hops []route.Hop)) {
	kinds := len(coffe.Kinds())
	stamp := make([]int32, m.PL.Grid.NumTiles()*kinds)
	var hops []route.Hop
	var sinks []int
	for i, d := range sortedNetKeys(m.RT.Nets) {
		nr := m.RT.Nets[d]
		mark := int32(i + 1)
		hops = hops[:0]
		sinks = sortedPathKeys(sinks[:0], nr.Paths)
		for _, s := range sinks {
			for _, h := range nr.Paths[s] {
				slot := h.Tile*kinds + int(h.Kind)
				if stamp[slot] == mark {
					continue
				}
				stamp[slot] = mark
				hops = append(hops, h)
			}
		}
		visit(d, hops)
	}
}

// sortedNetKeys returns the routed net drivers in ascending block-ID order.
func sortedNetKeys(nets map[int]*route.NetRoute) []int {
	keys := make([]int, 0, len(nets))
	for d := range nets {
		keys = append(keys, d)
	}
	sort.Ints(keys)
	return keys
}

// sortedPathKeys appends a net's sinks to keys in ascending block-ID order.
func sortedPathKeys(keys []int, paths map[int][]route.Hop) []int {
	for s := range paths {
		keys = append(keys, s)
	}
	sort.Ints(keys)
	return keys
}
