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
		m.dynPerMHz[tile] += dynUWPerMHz(cFF, alpha, v)
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
			add(tile, dev.CEff(coffe.BRAM), 0.5+0.5*alpha, m.VddL)
		case netlist.DSP:
			add(tile, dev.CEff(coffe.DSP), alpha, m.Vdd)
		}
	}

	// Routed interconnect: every hop's mux+wire capacitance switches with
	// the net's activity, in the hop's tile. Paths share tree wires; to
	// avoid double counting shared trunks across sinks, deposit each
	// distinct (tile, kind) of a net once. Nets and sinks are visited in
	// sorted order: the deposits are float64 accumulations, so map-order
	// iteration would make the power vector — and everything thermal
	// downstream of it — vary run to run in the last bits.
	for _, d := range sortedNetKeys(m.RT.Nets) {
		nr := m.RT.Nets[d]
		alpha := m.Act[d].Density
		seen := map[route.Hop]bool{}
		add(m.PL.TileOf[d], m.Dev.CEff(coffe.OutputMux), alpha, m.Vdd)
		for _, s := range sortedPathKeys(nr.Paths) {
			for _, h := range nr.Paths[s] {
				if seen[h] {
					continue
				}
				seen[h] = true
				add(h.Tile, m.Dev.CEff(h.Kind), alpha, m.Vdd)
			}
		}
	}

	// Clock distribution: a fixed per-occupied-tile spine load.
	for i := range m.NL.Blocks {
		if t := m.PL.TileOf[i]; t >= 0 && m.NL.Blocks[i].Type == netlist.FF {
			add(t, 4, 1.0, m.Vdd)
		}
	}
}

// Vector returns the per-tile power in µW at clock fMHz and per-tile
// temperatures temps (leakage is temperature-dependent; dynamic power
// scales linearly with frequency, as the paper scales the COFFE numbers).
func (m *Model) Vector(fMHz float64, temps []float64) []float64 {
	return m.VectorInto(fMHz, temps, nil)
}

// VectorInto is Vector with a caller-owned destination: when dst has the
// tile count it is overwritten and returned, otherwise a fresh vector is
// allocated. Every entry is the same expression Vector computes, so reusing
// a buffer (the guardband loop re-evaluates power every iteration) cannot
// change a single bit of the result.
func (m *Model) VectorInto(fMHz float64, temps, dst []float64) []float64 {
	grid := m.PL.Grid
	if len(dst) != grid.NumTiles() {
		dst = make([]float64, grid.NumTiles())
	}
	for tile := 0; tile < grid.NumTiles(); tile++ {
		dst[tile] = m.dynPerMHz[tile]*fMHz + m.Dev.TileLeak(grid.ClassAt(tile), temps[tile])
	}
	return dst
}

// BasePowerUW returns the device's idle (leakage-only) power at a uniform
// temperature — the p_base of the paper's XPE cross-validation.
func (m *Model) BasePowerUW(tempC float64) float64 {
	grid := m.PL.Grid
	total := 0.0
	for tile := 0; tile < grid.NumTiles(); tile++ {
		total += m.Dev.TileLeak(grid.ClassAt(tile), tempC)
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
// temperatures. Unlike Vector it walks the netlist again, so it is meant
// for reporting, not for the guardbanding inner loop.
func (m *Model) Report(fMHz float64, temps []float64) Breakdown {
	var b Breakdown
	grid := m.PL.Grid
	for tile := 0; tile < grid.NumTiles(); tile++ {
		b.LeakUW += m.Dev.TileLeak(grid.ClassAt(tile), temps[tile])
	}
	dev := m.Dev
	for i := range m.NL.Blocks {
		blk := &m.NL.Blocks[i]
		if m.PL.TileOf[i] < 0 {
			continue
		}
		alpha := m.Act[i].Density
		switch blk.Type {
		case netlist.LUT:
			b.DynLogicUW += dynUWPerMHz(dev.CEff(coffe.LUTA), alpha, m.Vdd) * fMHz
			for _, in := range blk.Inputs {
				b.DynLogicUW += dynUWPerMHz(dev.CEff(coffe.LocalMux), m.Act[in].Density, m.Vdd) * fMHz
			}
		case netlist.FF:
			b.DynClockingUW += dynUWPerMHz(10, 1.0, m.Vdd) * fMHz
			b.DynClockingUW += dynUWPerMHz(4, 1.0, m.Vdd) * fMHz
			b.DynLogicUW += dynUWPerMHz(6, m.Act[blk.Inputs[0]].Density, m.Vdd) * fMHz
		case netlist.BRAM:
			b.DynMacroUW += dynUWPerMHz(dev.CEff(coffe.BRAM), 0.5+0.5*alpha, m.VddL) * fMHz
		case netlist.DSP:
			b.DynMacroUW += dynUWPerMHz(dev.CEff(coffe.DSP), alpha, m.Vdd) * fMHz
		}
	}
	// Sorted net/sink order for the same reason as buildDynamic: the
	// routing bucket is a float64 sum, and its value must not depend on
	// map iteration order.
	for _, d := range sortedNetKeys(m.RT.Nets) {
		nr := m.RT.Nets[d]
		alpha := m.Act[d].Density
		seen := map[route.Hop]bool{}
		b.DynRoutingUW += dynUWPerMHz(dev.CEff(coffe.OutputMux), alpha, m.Vdd) * fMHz
		for _, s := range sortedPathKeys(nr.Paths) {
			for _, h := range nr.Paths[s] {
				if seen[h] {
					continue
				}
				seen[h] = true
				b.DynRoutingUW += dynUWPerMHz(dev.CEff(h.Kind), alpha, m.Vdd) * fMHz
			}
		}
	}
	return b
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

// sortedPathKeys returns a net's sinks in ascending block-ID order.
func sortedPathKeys(paths map[int][]route.Hop) []int {
	keys := make([]int, 0, len(paths))
	for s := range paths {
		keys = append(keys, s)
	}
	sort.Ints(keys)
	return keys
}
