package sta

// reference_test.go preserves the seed Analyze verbatim, with the seed
// helpers netDelay and sourceLaunch it walks. It is the golden reference the
// equivalence tests hold the compiled probe to (exact floating-point
// equality, not a tolerance). It is test code only.

import (
	"fmt"

	"tafpga/internal/coffe"
	"tafpga/internal/netlist"
	"tafpga/internal/route"
)

// AnalyzeReference is the original map-walking probe, unchanged from the
// seed implementation. Analyze must match it bit for bit.
func (a *Analyzer) AnalyzeReference(temps []float64) Report {
	nl := a.NL
	arrival := make([]float64, len(nl.Blocks))
	worstIn := make([]int, len(nl.Blocks)) // critical fan-in per block
	for i := range worstIn {
		worstIn[i] = -1
	}

	// Source arrivals.
	for i := range nl.Blocks {
		switch nl.Blocks[i].Type {
		case netlist.Input, netlist.FF, netlist.BRAM, netlist.DSP:
			arrival[i] = a.sourceLaunch(i, temps)
		}
	}

	// Combinational propagation in topological order.
	for _, id := range a.order {
		b := &nl.Blocks[id]
		in, inIdx := 0.0, -1
		for _, src := range b.Inputs {
			t := arrival[src] + a.netDelay(src, id, temps, nil)
			if t > in {
				in, inIdx = t, src
			}
		}
		worstIn[id] = inIdx
		if b.Type == netlist.LUT {
			arrival[id] = in + a.Dev.Delay(coffe.LUTA, temps[a.PL.TileOf[id]])
		} else {
			arrival[id] = in // output pad
		}
	}

	// Endpoint requirements.
	rep := Report{Breakdown: map[coffe.ResourceKind]float64{}, CriticalEnd: -1}
	endArrival := func(id int) float64 {
		b := &nl.Blocks[id]
		switch b.Type {
		case netlist.Output:
			return arrival[id]
		case netlist.FF, netlist.BRAM, netlist.DSP:
			worst := 0.0
			for _, s := range b.Inputs {
				if t := arrival[s] + a.netDelay(s, id, temps, nil); t > worst {
					worst = t
				}
			}
			return worst + a.Dev.FFSetup(temps[a.PL.TileOf[id]])
		}
		return 0
	}
	for i := range nl.Blocks {
		switch nl.Blocks[i].Type {
		case netlist.Output, netlist.FF, netlist.BRAM, netlist.DSP:
			if len(nl.Blocks[i].Inputs) == 0 {
				continue
			}
			if t := endArrival(i); t > rep.PeriodPs {
				rep.PeriodPs = t
				rep.CriticalEnd = i
			}
		}
	}
	// Hard-block internal stage constraints: the DSP's registered multiply
	// stage bounds the period on its own.
	for i := range nl.Blocks {
		if nl.Blocks[i].Type == netlist.DSP {
			if t := a.Dev.Delay(coffe.DSP, temps[a.PL.TileOf[i]]); t > rep.PeriodPs {
				rep.PeriodPs = t
				rep.CriticalEnd = i
			}
		}
	}

	if rep.PeriodPs > 0 {
		rep.FmaxMHz = 1e6 / rep.PeriodPs
	}
	a.traceCriticalReference(&rep, arrival, worstIn, temps)
	return rep
}

// traceCriticalReference reconstructs the critical path the seed way,
// re-walking RT.Nets for every arc on the path.
func (a *Analyzer) traceCriticalReference(rep *Report, arrival []float64, worstIn []int, temps []float64) {
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

	// Find the worst fan-in edge into the endpoint.
	cur := end
	if b.Type != netlist.Output {
		worst, wsrc := 0.0, -1
		for _, s := range b.Inputs {
			if t := arrival[s] + a.netDelay(s, end, temps, nil); t > worst {
				worst, wsrc = t, s
			}
		}
		rep.Sequential += a.Dev.FFSetup(temps[a.PL.TileOf[end]])
		if wsrc < 0 {
			return
		}
		var hops []route.Hop
		a.netDelay(wsrc, end, temps, &hops)
		for _, h := range hops {
			rep.Breakdown[h.Kind] += a.Dev.Delay(h.Kind, temps[h.Tile])
		}
		cur = wsrc
	} else {
		cur = worstIn[end]
		if cur < 0 {
			return
		}
		var hops []route.Hop
		a.netDelay(cur, end, temps, &hops)
		for _, h := range hops {
			rep.Breakdown[h.Kind] += a.Dev.Delay(h.Kind, temps[h.Tile])
		}
	}

	for cur >= 0 {
		cb := &nl.Blocks[cur]
		switch cb.Type {
		case netlist.LUT:
			rep.Breakdown[coffe.LUTA] += a.Dev.Delay(coffe.LUTA, temps[a.PL.TileOf[cur]])
			prev := worstIn[cur]
			if prev >= 0 {
				var hops []route.Hop
				a.netDelay(prev, cur, temps, &hops)
				for _, h := range hops {
					rep.Breakdown[h.Kind] += a.Dev.Delay(h.Kind, temps[h.Tile])
				}
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

// netDelay returns the routed interconnect delay in ps from driver d to
// sink s under temperature vector temps, plus the resource kinds traversed
// (appended to hops for breakdown tracing when trace is non-nil).
func (a *Analyzer) netDelay(d, s int, temps []float64, trace *[]route.Hop) float64 {
	dev := a.Dev
	dTile := a.PL.TileOf[d]
	sTile := a.PL.TileOf[s]

	if nr, ok := a.RT.Nets[d]; ok {
		if hops, ok := nr.Paths[s]; ok {
			// Inter-tile: output mux at the driver, the routed hops, then
			// the local crossbar at the sink.
			delay := dev.Delay(coffe.OutputMux, temps[dTile])
			if trace != nil {
				*trace = append(*trace, route.Hop{Tile: dTile, Kind: coffe.OutputMux})
			}
			for _, h := range hops {
				delay += dev.Delay(h.Kind, temps[h.Tile])
				if trace != nil {
					*trace = append(*trace, h)
				}
			}
			if a.NL.Blocks[s].Type != netlist.Output {
				delay += dev.Delay(coffe.LocalMux, temps[sTile])
				if trace != nil {
					*trace = append(*trace, route.Hop{Tile: sTile, Kind: coffe.LocalMux})
				}
			}
			return delay
		}
	}
	// Cluster-internal: BLE feedback mux plus the local crossbar.
	delay := dev.Delay(coffe.FeedbackMux, temps[dTile])
	if trace != nil {
		*trace = append(*trace, route.Hop{Tile: dTile, Kind: coffe.FeedbackMux})
	}
	if a.NL.Blocks[s].Type != netlist.Output {
		delay += dev.Delay(coffe.LocalMux, temps[sTile])
		if trace != nil {
			*trace = append(*trace, route.Hop{Tile: sTile, Kind: coffe.LocalMux})
		}
	}
	return delay
}

// sourceLaunch returns the clk-to-output arrival of a path-launching block.
func (a *Analyzer) sourceLaunch(id int, temps []float64) float64 {
	b := &a.NL.Blocks[id]
	tile := a.PL.TileOf[id]
	switch b.Type {
	case netlist.Input:
		return 0
	case netlist.FF:
		return a.Dev.FFClkToQ(temps[tile])
	case netlist.BRAM:
		// Synchronous read: clock to data out is the access time.
		return a.Dev.Delay(coffe.BRAM, temps[tile])
	case netlist.DSP:
		// Fully registered block: its output launches from a register.
		return a.Dev.FFClkToQ(temps[tile])
	}
	panic(fmt.Sprintf("sta: block %d (%s) is not a path source", id, b.Type))
}
