// Package pack clusters the flat mapped netlist into the architecture's
// physical blocks, playing the role of VPR's AAPack in the paper's flow:
// LUT/FF pairs fuse into BLEs, and BLEs are greedily clustered (attraction =
// shared nets) into logic clusters of N BLEs with at most ClusterInputs
// distinct external input nets. BRAM and DSP instances map one-to-one onto
// their column tiles; IO pads are grouped onto the IO ring by the placer.
package pack

import (
	"fmt"
	"sort"

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
// input bound of maxInputs. The result is a pure function of its inputs:
// each cluster grows by the candidate with the highest attraction score,
// ties going to the lowest BLE index, and lists its ExtInputs ascending.
func Pack(nl *netlist.Netlist, n, maxInputs int) (*Result, error) {
	if n < 1 || maxInputs < 1 {
		return nil, fmt.Errorf("pack: invalid cluster shape N=%d inputs=%d", n, maxInputs)
	}
	if nl.Sinks == nil {
		return nil, fmt.Errorf("pack: netlist %s not frozen", nl.Name)
	}
	nb := len(nl.Blocks)
	res := &Result{Netlist: nl, ClusterOf: make([]int, nb)}
	for i := range res.ClusterOf {
		res.ClusterOf[i] = -1
	}

	// Build BLEs: fuse each FF with its driving LUT when that pairing is
	// legal (the FF is the LUT's sink); leftover FFs and LUTs get their own
	// BLE. mate links a fused LUT and FF both ways (-1 = unfused).
	mate := make([]int, nb)
	for i := range mate {
		mate[i] = -1
	}
	for i := range nl.Blocks {
		b := &nl.Blocks[i]
		if b.Type != netlist.FF {
			continue
		}
		if d := b.Inputs[0]; nl.Blocks[d].Type == netlist.LUT && mate[d] < 0 {
			mate[d], mate[i] = i, d
		}
	}
	var bles []BLE
	for i := range nl.Blocks {
		switch nl.Blocks[i].Type {
		case netlist.LUT:
			bles = append(bles, BLE{LUT: i, FF: mate[i]})
		case netlist.FF:
			if mate[i] < 0 {
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

	// A BLE reads its LUT's inputs, or its lone FF's.
	bleInputs := func(e BLE) []int {
		if e.LUT >= 0 {
			return nl.Blocks[e.LUT].Inputs
		}
		return nl.Blocks[e.FF].Inputs
	}
	// users[userOff[net]:userOff[net+1]] are the BLEs reading net, one
	// entry per input occurrence, so a BLE reading a net twice scores it
	// twice.
	userOff := make([]int, nb+1)
	for _, e := range bles {
		for _, in := range bleInputs(e) {
			userOff[in+1]++
		}
	}
	for i := 0; i < nb; i++ {
		userOff[i+1] += userOff[i]
	}
	users := make([]int, userOff[nb])
	fill := append([]int(nil), userOff[:nb]...)
	for bi, e := range bles {
		for _, in := range bleInputs(e) {
			users[fill[in]] = bi
			fill[in]++
		}
	}

	// Greedy seed-and-grow clustering. A candidate is an unplaced BLE that
	// reads a net the growing cluster drives (2 points per read: absorbing
	// it internalizes wiring) or already reads from outside (1 point per
	// read). Scores change only when a net changes status, so they are kept
	// up to date as nets do rather than recounted per grow step. Every mark
	// is a stamp holding tag (cluster ID+1), so nothing is cleared between
	// clusters: insideOf[net] and extOf[net] while the net is driven inside
	// or read from outside, candOf[bi] while score[bi] and reach[bi] (its
	// reads of inside or external nets) count for this cluster.
	placed := make([]bool, len(bles))
	insideOf := make([]int, nb)
	extOf := make([]int, nb)
	candOf := make([]int, len(bles))
	score := make([]int, len(bles))
	reach := make([]int, len(bles))
	var extNets, cands []int
	for seed := 0; seed < len(bles); seed++ {
		if placed[seed] {
			continue
		}
		cl := Cluster{ID: len(res.Clusters)}
		tag := cl.ID + 1
		extNets, cands = extNets[:0], cands[:0]
		nExt := 0
		// credit adds points (and newReach reads) to every BLE reading net.
		credit := func(net, points, newReach int) {
			for _, bi := range users[userOff[net]:userOff[net+1]] {
				if candOf[bi] != tag {
					candOf[bi], score[bi], reach[bi] = tag, 0, 0
					cands = append(cands, bi)
				}
				score[bi] += points
				reach[bi] += newReach
			}
		}
		// extra counts the reads of bi the cluster neither drives nor
		// already reads: each would take a cluster input.
		extra := func(bi int) int {
			x := len(bleInputs(bles[bi]))
			if candOf[bi] == tag {
				x -= reach[bi]
			}
			return x
		}
		add := func(bi int) {
			e := bles[bi]
			placed[bi] = true
			cl.BLEs = append(cl.BLEs, e)
			for _, id := range [2]int{e.LUT, e.FF} {
				if id < 0 {
					continue
				}
				res.ClusterOf[id] = cl.ID
				if extOf[id] == tag {
					// Newly internal nets stop counting as external.
					extOf[id] = 0
					nExt--
					credit(id, 1, 0)
				} else {
					credit(id, 2, 1)
				}
				insideOf[id] = tag
			}
			for _, in := range bleInputs(e) {
				if insideOf[in] != tag && extOf[in] != tag {
					extOf[in] = tag
					extNets = append(extNets, in)
					nExt++
					credit(in, 1, 1)
				}
			}
		}
		add(seed)

		for len(cl.BLEs) < n {
			best, bestScore := -1, -1
			for _, bi := range cands {
				// Would adding it blow the input budget?
				if placed[bi] || nExt+extra(bi) > maxInputs {
					continue
				}
				if score[bi] > bestScore || (score[bi] == bestScore && bi < best) {
					best, bestScore = bi, score[bi]
				}
			}
			if best < 0 {
				// Fall back to the next unplaced BLE if the budget allows.
				for bi := seed + 1; bi < len(bles); bi++ {
					if placed[bi] {
						continue
					}
					if nExt+extra(bi) <= maxInputs {
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

		for _, net := range extNets {
			if extOf[net] == tag {
				cl.ExtInputs = append(cl.ExtInputs, net)
			}
		}
		sort.Ints(cl.ExtInputs)
		res.Clusters = append(res.Clusters, cl)
	}
	return res, nil
}
