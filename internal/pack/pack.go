// Package pack clusters the flat mapped netlist into the architecture's
// physical blocks, playing the role of VPR's AAPack in the paper's flow:
// LUT/FF pairs fuse into BLEs, and BLEs are greedily clustered (attraction =
// shared nets) into logic clusters of N BLEs with at most ClusterInputs
// distinct external input nets. BRAM and DSP instances map one-to-one onto
// their column tiles; IO pads are grouped onto the IO ring by the placer.
package pack

import (
	"fmt"

	"tafpga/internal/netlist"
)

// BLE is one basic logic element: an optional LUT feeding an optional FF.
type BLE struct {
	// LUT and FF are netlist block IDs, or -1 when the element is absent.
	LUT, FF int
}

// Cluster is one packed logic block.
type Cluster struct {
	ID   int
	BLEs []BLE
	// ExtInputs are the distinct external nets (driver block IDs) the
	// cluster reads through its connection-block inputs.
	ExtInputs []int
}

// Result is the packed design.
type Result struct {
	Netlist  *netlist.Netlist
	Clusters []Cluster
	// ClusterOf maps a block ID to its cluster index, or -1 when the block
	// is not inside a logic cluster (IO, BRAM, DSP).
	ClusterOf []int
	// Macros and pads that occupy their own placement sites.
	BRAMs, DSPs, Inputs, Outputs []int
}

// Pack clusters the netlist for a cluster size of n BLEs and a cluster
// input bound of maxInputs.
func Pack(nl *netlist.Netlist, n, maxInputs int) (*Result, error) {
	if n < 1 || maxInputs < 1 {
		return nil, fmt.Errorf("pack: invalid cluster shape N=%d inputs=%d", n, maxInputs)
	}
	if nl.Sinks == nil {
		return nil, fmt.Errorf("pack: netlist %s not frozen", nl.Name)
	}
	res := &Result{Netlist: nl, ClusterOf: make([]int, len(nl.Blocks))}
	for i := range res.ClusterOf {
		res.ClusterOf[i] = -1
	}

	// Build BLEs: fuse each FF with its driving LUT when that pairing is
	// legal (the FF is the LUT's sink); leftover FFs and LUTs get their own
	// BLE.
	ffOfLUT := map[int]int{}
	usedFF := map[int]bool{}
	for i := range nl.Blocks {
		b := &nl.Blocks[i]
		if b.Type != netlist.FF {
			continue
		}
		d := b.Inputs[0]
		if nl.Blocks[d].Type == netlist.LUT {
			if _, taken := ffOfLUT[d]; !taken {
				ffOfLUT[d] = i
				usedFF[i] = true
			}
		}
	}
	var bles []BLE
	for i := range nl.Blocks {
		switch nl.Blocks[i].Type {
		case netlist.LUT:
			ff := -1
			if f, ok := ffOfLUT[i]; ok {
				ff = f
			}
			bles = append(bles, BLE{LUT: i, FF: ff})
		case netlist.FF:
			if !usedFF[i] {
				bles = append(bles, BLE{LUT: -1, FF: i})
			}
		case netlist.BRAM:
			res.BRAMs = append(res.BRAMs, i)
		case netlist.DSP:
			res.DSPs = append(res.DSPs, i)
		case netlist.Input:
			res.Inputs = append(res.Inputs, i)
		case netlist.Output:
			res.Outputs = append(res.Outputs, i)
		}
	}

	// Greedy seed-and-grow clustering.
	placed := make([]bool, len(bles))
	// netUsers maps a net to the indices of unplaced BLEs reading it.
	netUsers := map[int][]int{}
	bleInputs := func(e BLE) []int {
		var ins []int
		if e.LUT >= 0 {
			ins = append(ins, nl.Blocks[e.LUT].Inputs...)
		}
		if e.FF >= 0 && e.LUT < 0 {
			ins = append(ins, nl.Blocks[e.FF].Inputs...)
		}
		return ins
	}
	for bi, e := range bles {
		for _, in := range bleInputs(e) {
			netUsers[in] = append(netUsers[in], bi)
		}
	}

	for seed := 0; seed < len(bles); seed++ {
		if placed[seed] {
			continue
		}
		cl := Cluster{ID: len(res.Clusters)}
		inside := map[int]bool{} // nets driven inside the cluster
		ext := map[int]bool{}    // external input nets
		add := func(bi int) {
			e := bles[bi]
			placed[bi] = true
			cl.BLEs = append(cl.BLEs, e)
			for _, id := range []int{e.LUT, e.FF} {
				if id >= 0 {
					inside[id] = true
					res.ClusterOf[id] = cl.ID
				}
			}
			for _, in := range bleInputs(e) {
				if !inside[in] {
					ext[in] = true
				}
			}
			// Newly internal nets stop counting as external.
			for _, id := range []int{e.LUT, e.FF} {
				if id >= 0 {
					delete(ext, id)
				}
			}
		}
		add(seed)

		for len(cl.BLEs) < n {
			best, bestScore := -1, -1
			// Candidates: unplaced BLEs sharing a net with the cluster.
			cands := map[int]int{}
			for net := range ext {
				for _, bi := range netUsers[net] {
					if !placed[bi] {
						cands[bi]++
					}
				}
			}
			for net := range inside {
				for _, bi := range netUsers[net] {
					if !placed[bi] {
						cands[bi] += 2 // absorbing a sink internalizes wiring
					}
				}
			}
			for bi, score := range cands {
				// Would adding it blow the input budget?
				extra := 0
				for _, in := range bleInputs(bles[bi]) {
					if !inside[in] && !ext[in] {
						extra++
					}
				}
				if len(ext)+extra > maxInputs {
					continue
				}
				if score > bestScore || (score == bestScore && bi < best) {
					best, bestScore = bi, score
				}
			}
			if best < 0 {
				// Fall back to the next unplaced BLE if the budget allows.
				for bi := seed + 1; bi < len(bles); bi++ {
					if placed[bi] {
						continue
					}
					extra := 0
					for _, in := range bleInputs(bles[bi]) {
						if !inside[in] && !ext[in] {
							extra++
						}
					}
					if len(ext)+extra <= maxInputs {
						best = bi
					}
					break
				}
			}
			if best < 0 {
				break
			}
			add(best)
		}

		for net := range ext {
			cl.ExtInputs = append(cl.ExtInputs, net)
		}
		res.Clusters = append(res.Clusters, cl)
	}
	return res, nil
}
