package sta

import "tafpga/internal/coffe"

// batch.go evaluates B temperature lanes per traversal of the compiled
// timing graph. An ambient sweep probes the same netlist at many
// temperature maps; the serial path re-walks the edge/term index arrays
// once per map even though only the priced values differ. AnalyzeBatch
// interleaves the per-lane working vectors lane-minor (arrival[id*B+l],
// termVal[tid*B+l]) so one pass over termID/termLo/edgeSrc serves every
// lane: the index fetches are amortized B ways while each lane's
// floating-point work — the term summation order, the fan-in comparisons,
// the LUT delay addition — is exactly the serial propagate's sequence, so
// every lane's report is bit-identical (==) to Analyze on that lane's
// temperatures.

// batchScratch is the interleaved working set of one AnalyzeBatch call:
// lane l of node id lives at [id*lanes+l].
type batchScratch struct {
	lanes     int
	arrival   []float64
	worstIn   []int32
	worstEdge []int32
	termVal   []float64
	// Per-edge lane accumulators, reused across the traversal.
	in    []float64
	inIdx []int32
	inEdg []int32
	delay []float64
}

// newBatchScratch sizes a working set for B lanes, reset for a fresh probe.
func (a *Analyzer) newBatchScratch(b int) *batchScratch {
	nb := len(a.NL.Blocks) * b
	sc := &batchScratch{
		lanes:     b,
		arrival:   make([]float64, nb),
		worstIn:   make([]int32, nb),
		worstEdge: make([]int32, nb),
		termVal:   make([]float64, len(a.comp.uniq)*b),
		in:        make([]float64, b),
		inIdx:     make([]int32, b),
		inEdg:     make([]int32, b),
		delay:     make([]float64, b),
	}
	for i := range sc.worstIn {
		sc.worstIn[i] = -1
		sc.worstEdge[i] = -1
	}
	return sc
}

// AnalyzeBatch runs one full-netlist probe per temperature lane in a single
// structure-of-arrays traversal. Report l is bit-identical to
// Analyze(temps[l]); an empty batch returns nil, and a one-lane batch runs
// Analyze itself, which beats the interleaved traversal at that width, so
// callers never need a width-1 branch of their own. The endpoint scan and
// critical-path trace reuse the serial finish() on each lane's
// de-interleaved working set, so the batched layer cannot drift from the
// serial semantics there either.
func (a *Analyzer) AnalyzeBatch(temps [][]float64) []Report {
	b := len(temps)
	switch b {
	case 0:
		return nil
	case 1:
		return []Report{a.Analyze(temps[0])}
	}
	sc := a.newBatchScratch(b)
	a.fillTermValsBatch(temps, sc)
	a.seedArrivalsBatch(temps, sc)
	a.propagateBatch(temps, sc)

	// Finish each lane on the shared serial path: de-interleave the lane
	// into a pooled analyzeScratch (every entry is overwritten, so the
	// pool's reset is skipped) and run the endpoint scan + trace.
	reports := make([]Report, b)
	for l := 0; l < b; l++ {
		lane := a.scratch.Get().(*analyzeScratch)
		for i := range lane.arrival {
			lane.arrival[i] = sc.arrival[i*b+l]
			lane.worstIn[i] = sc.worstIn[i*b+l]
			lane.worstEdge[i] = sc.worstEdge[i*b+l]
		}
		for i := range lane.termVal {
			lane.termVal[i] = sc.termVal[i*b+l]
		}
		reports[l] = a.finish(temps[l], lane)
		a.scratch.Put(lane)
	}
	return reports
}

// fillTermValsBatch prices every distinct (kind, tile) pair once per lane —
// the same dev.Delay call the serial fillTermVals makes, per lane.
func (a *Analyzer) fillTermValsBatch(temps [][]float64, sc *batchScratch) {
	dev := a.Dev
	b := sc.lanes
	for i, t := range a.comp.uniq {
		row := sc.termVal[i*b : (i+1)*b]
		for l := 0; l < b; l++ {
			row[l] = dev.Delay(t.kind, temps[l][t.tile])
		}
	}
}

// seedArrivalsBatch fills the source launch times per lane (the batched
// seedArrivals).
func (a *Analyzer) seedArrivalsBatch(temps [][]float64, sc *batchScratch) {
	dev := a.Dev
	c := a.comp
	b := sc.lanes
	for k, id := range c.srcID {
		base := int(id) * b
		switch c.srcClass[k] {
		case srcClkToQ:
			for l := 0; l < b; l++ {
				sc.arrival[base+l] = dev.FFClkToQ(temps[l][c.srcTile[k]])
			}
		case srcBRAM:
			for l := 0; l < b; l++ {
				sc.arrival[base+l] = dev.Delay(coffe.BRAM, temps[l][c.srcTile[k]])
			}
		}
	}
}

// propagateBatch is the batched combinational forward pass. Per lane it
// performs the serial propagate's exact floating-point sequence: each arc's
// terms are summed in termID order into that lane's accumulator, the fan-in
// comparison runs in edge order, and LUT nodes add the lane's own LUT delay
// — only the index fetches (termID, termLo, edgeSrc, comboEdgeLo) are
// shared across lanes.
func (a *Analyzer) propagateBatch(temps [][]float64, sc *batchScratch) {
	dev := a.Dev
	c := a.comp
	b := sc.lanes
	termID, termLo, edgeSrc := c.termID, c.termLo, c.edgeSrc
	arrival, vals := sc.arrival, sc.termVal
	in, inIdx, inEdg, delay := sc.in, sc.inIdx, sc.inEdg, sc.delay
	for k, id := range c.comboID {
		for l := 0; l < b; l++ {
			in[l], inIdx[l], inEdg[l] = 0, -1, -1
		}
		for e := c.comboEdgeLo[k]; e < c.comboEdgeLo[k+1]; e++ {
			for l := 0; l < b; l++ {
				delay[l] = 0
			}
			for _, tid := range termID[termLo[e]:termLo[e+1]] {
				row := vals[int(tid)*b : (int(tid)+1)*b]
				for l := 0; l < b; l++ {
					delay[l] += row[l]
				}
			}
			src := int(edgeSrc[e]) * b
			for l := 0; l < b; l++ {
				if t := arrival[src+l] + delay[l]; t > in[l] {
					in[l], inIdx[l], inEdg[l] = t, edgeSrc[e], e
				}
			}
		}
		base := int(id) * b
		for l := 0; l < b; l++ {
			sc.worstIn[base+l] = inIdx[l]
			sc.worstEdge[base+l] = inEdg[l]
		}
		if c.comboIsLUT[k] {
			tile := c.comboTile[k]
			for l := 0; l < b; l++ {
				arrival[base+l] = in[l] + dev.Delay(lutKind, temps[l][tile])
			}
		} else {
			for l := 0; l < b; l++ {
				arrival[base+l] = in[l] // output pad
			}
		}
	}
}
