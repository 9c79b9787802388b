// Package activity estimates per-net switching activity, standing in for
// ACE 2.0 in the paper's flow (Fig. 5(c)): given primary-input signal
// statistics it propagates static probability and transition density
// through LUT truth tables under the spatial-independence assumption, and
// iterates across register boundaries to a fixpoint for sequential designs.
// The result feeds the dynamic-power term of the guardbanding loop.
package activity

import (
	"math"

	"tafpga/internal/netlist"
)

// Stats carries the two ACE quantities for one net.
type Stats struct {
	// P1 is the static probability the net is logic-1.
	P1 float64
	// Density is the transition density: expected transitions per clock
	// cycle (0..2 for well-behaved synchronous logic; glitching can exceed
	// 1 inside deep combinational cones).
	Density float64
}

// Estimate returns per-net activity (indexed by driving block ID).
// piDensity is the assumed transition density of primary inputs; register
// outputs are filtered to at most one transition per cycle.
func Estimate(n *netlist.Netlist, piDensity float64) []Stats {
	act := make([]Stats, len(n.Blocks))
	for i := range n.Blocks {
		switch n.Blocks[i].Type {
		case netlist.Input:
			act[i] = Stats{P1: 0.5, Density: piDensity}
		case netlist.FF:
			act[i] = Stats{P1: 0.5, Density: piDensity} // refined by iteration
		case netlist.BRAM, netlist.DSP:
			act[i] = Stats{P1: 0.5, Density: piDensity}
		}
	}

	// Topological order over the combinational subgraph: LUTs and outputs
	// in dependency order; sequential/macro outputs are sources.
	order := comboOrder(n)

	// Iterate the whole propagation a few times so register feedback
	// converges (probabilities contract quickly under the independence
	// assumption; a handful of sweeps suffices).
	for iter := 0; iter < 6; iter++ {
		maxDelta := 0.0
		for _, id := range order {
			b := &n.Blocks[id]
			var s Stats
			switch b.Type {
			case netlist.LUT:
				s = lutStats(b, act)
			case netlist.Output:
				s = act[b.Inputs[0]]
			default:
				continue
			}
			d := math.Abs(s.P1-act[id].P1) + math.Abs(s.Density-act[id].Density)
			if d > maxDelta {
				maxDelta = d
			}
			act[id] = s
		}
		// Register transfer: a FF output follows its D probability; its
		// density is the probability the sampled value changes cycle to
		// cycle, bounded by 1.
		for i := range n.Blocks {
			b := &n.Blocks[i]
			switch b.Type {
			case netlist.FF:
				in := act[b.Inputs[0]]
				act[i] = Stats{P1: in.P1, Density: math.Min(1, 2*in.P1*(1-in.P1))}
			case netlist.BRAM:
				// Read data toggles with address/data activity, damped by
				// the array's storage.
				act[i] = Stats{P1: 0.5, Density: math.Min(1, 0.7*avgDensity(b, act))}
			case netlist.DSP:
				// Multiplier outputs are highly active relative to inputs.
				act[i] = Stats{P1: 0.5, Density: math.Min(1.5, 1.2*avgDensity(b, act))}
			}
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	return act
}

// lutStats computes output probability and density for a LUT by enumerating
// its truth table: P1 = Σ_minterms P(minterm)·f(m); density via the Boolean
// difference — an input toggle propagates iff it changes the output.
func lutStats(b *netlist.Block, act []Stats) Stats {
	k := len(b.Inputs)
	size := 1 << uint(k)

	p1 := 0.0
	for m := 0; m < size; m++ {
		if !b.LUTEval(m) {
			continue
		}
		pm := 1.0
		for i := 0; i < k; i++ {
			pi := act[b.Inputs[i]].P1
			if m>>uint(i)&1 == 1 {
				pm *= pi
			} else {
				pm *= 1 - pi
			}
		}
		p1 += pm
	}

	density := 0.0
	for i := 0; i < k; i++ {
		// P(∂f/∂x_i): probability the minterm with x_i flipped differs.
		sens := 0.0
		for m := 0; m < size; m++ {
			if b.LUTEval(m) == b.LUTEval(m^(1<<uint(i))) {
				continue
			}
			// Probability of the other inputs' assignment.
			pm := 1.0
			for j := 0; j < k; j++ {
				if j == i {
					continue
				}
				pj := act[b.Inputs[j]].P1
				if m>>uint(j)&1 == 1 {
					pm *= pj
				} else {
					pm *= 1 - pj
				}
			}
			sens += pm
		}
		// Each minterm pair is visited twice (m and m^bit).
		density += float64(act[b.Inputs[i]].Density * sens / 2)
	}
	return Stats{P1: clamp01(p1), Density: math.Min(density, 2)}
}

func avgDensity(b *netlist.Block, act []Stats) float64 {
	if len(b.Inputs) == 0 {
		return 0
	}
	s := 0.0
	for _, in := range b.Inputs {
		s += act[in].Density
	}
	return s / float64(len(b.Inputs))
}

// comboOrder returns LUT and Output block IDs in combinational dependency
// order (Kahn). Freeze guarantees acyclicity.
func comboOrder(n *netlist.Netlist) []int {
	indeg := make([]int, len(n.Blocks))
	for i := range n.Blocks {
		b := &n.Blocks[i]
		if b.Type != netlist.LUT && b.Type != netlist.Output {
			continue
		}
		for _, in := range b.Inputs {
			t := n.Blocks[in].Type
			if t == netlist.LUT {
				indeg[i]++
			}
		}
	}
	var queue, order []int
	for i := range n.Blocks {
		b := &n.Blocks[i]
		if (b.Type == netlist.LUT || b.Type == netlist.Output) && indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range n.Sinks[u] {
			t := n.Blocks[v].Type
			if t != netlist.LUT && t != netlist.Output {
				continue
			}
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return order
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
