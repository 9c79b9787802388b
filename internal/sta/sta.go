// Package sta is the temperature-aware static timing analyzer at the heart
// of the paper's Algorithm 1: given the placed-and-routed design and a
// per-tile temperature vector, every resource on every path is priced at
// the temperature of the tile it physically occupies — an SB mux three
// tiles from a hotspot is faster than the same mux inside it. Each call
// probes the entire netlist (the critical path can move as the temperature
// map changes, which the paper stresses), and reports both the achievable
// clock period and the composition of the critical path.
package sta

import (
	"sync"

	"tafpga/internal/coffe"
	"tafpga/internal/netlist"
	"tafpga/internal/place"
	"tafpga/internal/route"
)

// lutKind aliases the LUT resource class for the hot paths in this package.
const lutKind = coffe.LUTA

// Analyzer owns the timing graph of one implementation.
type Analyzer struct {
	NL  *netlist.Netlist
	Dev *coffe.Device
	PL  *place.Placement
	RT  *route.Result

	// order is the combinational topological order the graph is compiled
	// in; the seed probe of the equivalence tests walks it directly.
	order []int
	// comp is the flattened timing graph (see compile.go): device-free, so
	// SetDevice keeps it. scratch pools the per-probe working vectors
	// across concurrent Analyze calls.
	comp    *compiled
	scratch *sync.Pool
}

// New builds the analyzer, compiling the netlist + placement + routing into
// the flat edge arrays every probe runs over. The device may be swapped
// later with SetDevice (used when comparing corner-optimized fabrics on the
// same implementation).
func New(nl *netlist.Netlist, dev *coffe.Device, pl *place.Placement, rt *route.Result) *Analyzer {
	order := nl.ComboOrder()
	comp := compile(nl, pl, rt, order)
	return &Analyzer{
		NL: nl, Dev: dev, PL: pl, RT: rt, order: order,
		comp:    comp,
		scratch: newScratchPool(len(nl.Blocks), len(comp.uniq)),
	}
}

// SetDevice swaps the device characterization (same architecture, different
// thermal corner) without rebuilding the timing graph.
func (a *Analyzer) SetDevice(d *coffe.Device) { a.Dev = d }

// UniformTemps returns a temperature vector with every tile at tempC.
func UniformTemps(numTiles int, tempC float64) []float64 {
	t := make([]float64, numTiles)
	for i := range t {
		t[i] = tempC
	}
	return t
}

// Report is the outcome of one full-netlist timing probe.
type Report struct {
	// PeriodPs is the minimum clock period in ps.
	PeriodPs float64
	// FmaxMHz is the corresponding maximum frequency.
	FmaxMHz float64
	// CriticalEnd is the block ID of the critical endpoint.
	CriticalEnd int
	// Breakdown sums the critical path's delay per resource class, in ps
	// (FF clock-to-Q and setup are folded into the launching/capturing
	// elements and reported under the extra "sequential" key of Sequential).
	Breakdown map[coffe.ResourceKind]float64
	// Sequential is the clk-to-Q + setup share of the critical path in ps.
	Sequential float64
}

// Analyze runs the full-netlist probe at the given per-tile temperatures.
// It sweeps the compiled edge arrays (see compile.go) — no map lookups, no
// allocation beyond the returned report — and is numerically identical to
// the seed implementation it replaced (AnalyzeReference, kept in the
// package's tests).
func (a *Analyzer) Analyze(temps []float64) Report {
	sc := a.getScratch()
	defer a.scratch.Put(sc)

	a.fillTermVals(temps, sc.termVal)
	a.seedArrivals(temps, sc.arrival)
	a.propagate(temps, sc.arrival, sc.termVal, sc.worstIn, sc.worstEdge)
	return a.finish(temps, sc)
}

// finish runs the endpoint scan, the hard-block constraints, and the
// critical-path trace over an already-propagated working set. It is a pure
// function of (temps, sc).
func (a *Analyzer) finish(temps []float64, sc *analyzeScratch) Report {
	dev := a.Dev
	c := a.comp
	arrival, worstIn, worstEdge, vals := sc.arrival, sc.worstIn, sc.worstEdge, sc.termVal

	// Endpoint requirements. The worst fan-in arc of the winning endpoint
	// is recorded here so traceCritical never re-prices it.
	rep := Report{Breakdown: map[coffe.ResourceKind]float64{}, CriticalEnd: -1}
	critSrc, critEdge := int32(-1), int32(-1)
	for k, id := range c.endID {
		var at float64
		wsrc, wedge := int32(-1), int32(-1)
		if c.endSeq[k] {
			worst := 0.0
			for e := c.endEdgeLo[k]; e < c.endEdgeLo[k+1]; e++ {
				if t := arrival[c.edgeSrc[e]] + a.edgeDelay(e, vals); t > worst {
					worst, wsrc, wedge = t, c.edgeSrc[e], e
				}
			}
			at = worst + dev.FFSetup(temps[c.endTile[k]])
		} else {
			at = arrival[id]
		}
		if at > rep.PeriodPs {
			rep.PeriodPs = at
			rep.CriticalEnd = int(id)
			critSrc, critEdge = wsrc, wedge
		}
	}
	// Hard-block internal stage constraints: the DSP's registered multiply
	// stage bounds the period on its own.
	for k, id := range c.dspID {
		if t := dev.Delay(coffe.DSP, temps[c.dspTile[k]]); t > rep.PeriodPs {
			rep.PeriodPs = t
			rep.CriticalEnd = int(id)
			critSrc, critEdge = -1, -1
		}
	}

	if rep.PeriodPs > 0 {
		rep.FmaxMHz = 1e6 / rep.PeriodPs
	}
	a.traceCritical(&rep, worstIn, worstEdge, critSrc, critEdge, temps)
	return rep
}

// traceCritical reconstructs the critical path and fills the breakdown from
// the compiled arcs and the worst fan-ins recorded during the probe.
func (a *Analyzer) traceCritical(rep *Report, worstIn, worstEdge []int32, critSrc, critEdge int32, temps []float64) {
	if rep.CriticalEnd < 0 {
		return
	}
	nl := a.NL
	end := rep.CriticalEnd
	b := &nl.Blocks[end]

	// DSP internal constraint: the whole period is the hard block.
	if b.Type == netlist.DSP {
		if d := a.Dev.Delay(coffe.DSP, temps[a.PL.TileOf[end]]); d >= rep.PeriodPs-1e-9 {
			rep.Breakdown[coffe.DSP] = d
			return
		}
	}

	// Enter the path through the endpoint's worst fan-in arc, already
	// found by Analyze's endpoint scan.
	var cur int32
	if b.Type != netlist.Output {
		rep.Sequential += a.Dev.FFSetup(temps[a.PL.TileOf[end]])
		if critSrc < 0 {
			return
		}
		a.addEdgeBreakdown(critEdge, temps, rep)
		cur = critSrc
	} else {
		cur = worstIn[end]
		if cur < 0 {
			return
		}
		a.addEdgeBreakdown(worstEdge[end], temps, rep)
	}

	for cur >= 0 {
		cb := &nl.Blocks[cur]
		switch cb.Type {
		case netlist.LUT:
			rep.Breakdown[coffe.LUTA] += a.Dev.Delay(coffe.LUTA, temps[a.PL.TileOf[cur]])
			prev := worstIn[cur]
			if prev >= 0 {
				a.addEdgeBreakdown(worstEdge[cur], temps, rep)
			}
			cur = prev
		case netlist.FF, netlist.DSP:
			rep.Sequential += a.Dev.FFClkToQ(temps[a.PL.TileOf[cur]])
			cur = -1
		case netlist.BRAM:
			rep.Breakdown[coffe.BRAM] += a.Dev.Delay(coffe.BRAM, temps[a.PL.TileOf[cur]])
			cur = -1
		default:
			cur = -1
		}
	}
}
