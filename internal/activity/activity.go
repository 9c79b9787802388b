// Package activity estimates per-net switching activity, standing in for
// ACE 2.0 in the paper's flow (Fig. 5(c)): given primary-input signal
// statistics it propagates static probability and transition density
// through LUT truth tables under the spatial-independence assumption, and
// iterates across register boundaries to a fixpoint for sequential designs.
// The result feeds the dynamic-power term of the guardbanding loop.
package activity

import (
	"math"
	"math/bits"

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
	// in dependency order; sequential/macro outputs are sources. Truth
	// tables do not change across sweeps, so each LUT's masks are derived
	// once.
	order := n.ComboOrder()
	masks := make([]lutMasks, len(order))
	for k, id := range order {
		if b := &n.Blocks[id]; b.Type == netlist.LUT {
			masks[k] = masksOf(b)
		}
	}

	// A LUT's stats are a pure function of its inputs' stats, so a LUT none
	// of whose inputs changed bitwise since its last evaluation keeps its
	// value and adds nothing to the sweep's delta. changed[i] is the tick at
	// which act[i] last changed, evaluated[k] the tick of order[k]'s last
	// evaluation (0 = never).
	changed := make([]int, len(n.Blocks))
	evaluated := make([]int, len(order))
	tick := 0

	// Iterate the whole propagation a few times so register feedback
	// converges (probabilities contract quickly under the independence
	// assumption; a handful of sweeps suffices).
	for iter := 0; iter < 6; iter++ {
		maxDelta := 0.0
		for k, id := range order {
			b := &n.Blocks[id]
			var s Stats
			switch b.Type {
			case netlist.LUT:
				if evaluated[k] > 0 && !changedSince(b.Inputs, changed, evaluated[k]) {
					continue
				}
				tick++
				evaluated[k] = tick
				s = lutStats(b.Inputs, &masks[k], act)
			case netlist.Output:
				s = act[b.Inputs[0]]
			default:
				continue
			}
			d := math.Abs(s.P1-act[id].P1) + math.Abs(s.Density-act[id].Density)
			if d > maxDelta {
				maxDelta = d
			}
			if !sameBits(s, act[id]) {
				changed[id] = tick
			}
			act[id] = s
		}
		// Register transfer: a FF output follows its D probability; its
		// density is the probability the sampled value changes cycle to
		// cycle, bounded by 1.
		tick++
		for i := range n.Blocks {
			b := &n.Blocks[i]
			var s Stats
			switch b.Type {
			case netlist.FF:
				in := act[b.Inputs[0]]
				s = Stats{P1: in.P1, Density: math.Min(1, 2*in.P1*(1-in.P1))}
			case netlist.BRAM:
				// Read data toggles with address/data activity, damped by
				// the array's storage.
				s = Stats{P1: 0.5, Density: math.Min(1, 0.7*avgDensity(b, act))}
			case netlist.DSP:
				// Multiplier outputs are highly active relative to inputs.
				s = Stats{P1: 0.5, Density: math.Min(1.5, 1.2*avgDensity(b, act))}
			default:
				continue
			}
			if !sameBits(s, act[i]) {
				changed[i] = tick
			}
			act[i] = s
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	return act
}

// changedSince reports whether any of the nets changed after tick.
func changedSince(nets []int, changed []int, tick int) bool {
	for _, in := range nets {
		if changed[in] > tick {
			return true
		}
	}
	return false
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b Stats) bool {
	return math.Float64bits(a.P1) == math.Float64bits(b.P1) &&
		math.Float64bits(a.Density) == math.Float64bits(b.Density)
}

// lutMasks is a LUT's truth table as minterm masks: its ON-set, and per
// input i the Boolean difference ∂f/∂x_i (the minterms m with
// f(m) ≠ f(m ^ 1<<i)).
type lutMasks struct {
	on   uint64
	diff [6]uint64
}

// halves[i] selects the minterms whose bit i is 0.
var halves = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// masksOf derives the masks of a LUT with at most 6 inputs (Freeze
// enforces the bound).
func masksOf(b *netlist.Block) lutMasks {
	k := len(b.Inputs)
	t := b.Truth
	if k < 6 {
		t &= 1<<(1<<uint(k)) - 1
	}
	m := lutMasks{on: t}
	for i := 0; i < k; i++ {
		s := uint(1) << uint(i)
		flipped := (t>>s)&halves[i] | (t&halves[i])<<s
		m.diff[i] = t ^ flipped
	}
	return m
}

// lutStats computes output probability and density for a LUT from its
// masks: P1 = Σ_minterms P(minterm)·f(m); density via the Boolean
// difference — an input toggle propagates iff it changes the output.
//
// Minterm probabilities come from prefix tables: level j holds the 2^j
// products over inputs 0..j-1, each built as the previous level's entry
// times P(x_j) or 1−P(x_j). Every entry is therefore the same left-to-right
// multiply chain as enumerating the minterm input by input, and the sums
// run over the masks' set bits in ascending minterm order, so the result
// is bit-identical to the direct enumeration.
func lutStats(inputs []int, lm *lutMasks, act []Stats) Stats {
	k := len(inputs)
	// Level j of the prefix table sits at pre[2^j-1 : 2^(j+1)-1].
	var pre [127]float64
	pre[0] = 1
	for j := 0; j < k; j++ {
		pj := act[inputs[j]].P1
		n := 1 << uint(j)
		src, dst := pre[n-1:2*n-1], pre[2*n-1:4*n-1]
		for m, v := range src {
			dst[m] = v * (1 - pj)
			dst[m+n] = v * pj
		}
	}

	full := pre[1<<uint(k)-1:]
	p1 := 0.0
	for t := lm.on; t != 0; t &= t - 1 {
		p1 += full[bits.TrailingZeros64(t)]
	}

	density := 0.0
	for i := 0; i < k; i++ {
		// P(∂f/∂x_i): probability the minterm with x_i flipped differs,
		// summed over the minterms of the other k-1 inputs. other extends
		// prefix level i with inputs i+1..k-1, so other[m'] is input i's
		// complement chain, indexed by m with bit i removed.
		sens := 0.0
		if d := lm.diff[i]; d != 0 {
			var other [32]float64
			n := 1 << uint(i)
			copy(other[:n], pre[n-1:2*n-1])
			for j := i + 1; j < k; j++ {
				pj := act[inputs[j]].P1
				for m := 0; m < n; m++ {
					other[m+n] = other[m] * pj
					other[m] *= 1 - pj
				}
				n <<= 1
			}
			low := uint64(1)<<uint(i) - 1
			for ; d != 0; d &= d - 1 {
				m := uint64(bits.TrailingZeros64(d))
				sens += other[m&low|m>>uint(i+1)<<uint(i)]
			}
		}
		// Each minterm pair is visited twice (m and m^bit). The conversion
		// rounds the product, so no target fuses it into the add.
		density += float64(act[inputs[i]].Density * sens / 2)
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

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
