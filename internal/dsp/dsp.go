// Package dsp builds and times the FPGA's hard DSP block. The paper
// synthesizes a Stratix-like DSP from an HDL description with Design
// Compiler against per-temperature SiliconSmart libraries; here the block is
// a programmatically constructed gate-level netlist — partial-product
// generation, Wallace-tree carry-save reduction, a carry-lookahead final
// adder, and pipeline registers — timed by a topological static timing
// analysis over the internal/stdcell library characterized at any
// temperature.
package dsp

import (
	"fmt"
	"math"

	"tafpga/internal/stdcell"
	"tafpga/internal/techmodel"
)

// Gate is one standard-cell instance in the netlist. Fanins index other
// gates; an index of -1 denotes a primary input (arrival time zero after the
// input registers).
type Gate struct {
	Kind   stdcell.Kind
	Fanins []int
}

// Netlist is a combinational gate-level DAG in topological order: every
// fan-in index is smaller than the gate's own index.
type Netlist struct {
	Gates   []Gate
	Outputs []int
}

// baseNetWireUm is the average routing wire length per net at nominal drive
// scale. Upsizing the cells grows the block, and the wire length grows with
// the square root of the area — the feedback that makes the optimal drive
// scale corner-dependent (transistor resistance rises faster with
// temperature than copper resistance).
const baseNetWireUm = 7.0

// add appends a gate and returns its index.
func (n *Netlist) add(k stdcell.Kind, fanins ...int) int {
	for _, f := range fanins {
		if f >= len(n.Gates) {
			panic(fmt.Sprintf("dsp: fanin %d not yet defined (gate %d)", f, len(n.Gates)))
		}
	}
	n.Gates = append(n.Gates, Gate{Kind: k, Fanins: fanins})
	return len(n.Gates) - 1
}

// loads computes the capacitive load on each gate output under a library
// snapshot: the input caps of all fan-out pins plus the wire of the given
// per-net length.
func (n *Netlist) loads(lib *stdcell.Library, netWireUm float64) []float64 {
	wireFF := lib.Kit().Wire.C(netWireUm)
	ld := make([]float64, len(n.Gates))
	for i := range ld {
		ld[i] = wireFF
	}
	for _, g := range n.Gates {
		cin := lib.Cell(g.Kind).InputCapFF
		for _, f := range g.Fanins {
			if f >= 0 {
				ld[f] += cin
			}
		}
	}
	for _, o := range n.Outputs {
		ld[o] += lib.Cell(stdcell.DFF).InputCapFF
	}
	return ld
}

// CriticalPath returns the longest combinational arrival time in ps under
// the given library snapshot with the given per-net wire length: each stage
// pays the cell delay into its load plus the distributed wire RC.
func (n *Netlist) CriticalPath(lib *stdcell.Library, netWireUm float64) float64 {
	ld := n.loads(lib, netWireUm)
	wire := lib.Kit().Wire
	arr := make([]float64, len(n.Gates))
	worst := 0.0
	for i, g := range n.Gates {
		in := 0.0
		for _, f := range g.Fanins {
			if f >= 0 && arr[f] > in {
				in = arr[f]
			}
		}
		wireRC := 0.69 * wire.ElmoreWire(netWireUm, lib.TempC, ld[i]-wire.C(netWireUm))
		arr[i] = in + lib.Delay(g.Kind, ld[i]) + wireRC
		if arr[i] > worst {
			worst = arr[i]
		}
	}
	return worst
}

// Depth returns the maximum logic depth in gate levels, a sanity metric for
// tests (a Wallace multiplier should be logarithmic, not linear, in width).
func (n *Netlist) Depth() int {
	depth := make([]int, len(n.Gates))
	worst := 0
	for i, g := range n.Gates {
		d := 0
		for _, f := range g.Fanins {
			if f >= 0 && depth[f] > d {
				d = depth[f]
			}
		}
		depth[i] = d + 1
		if depth[i] > worst {
			worst = depth[i]
		}
	}
	return worst
}

// Area returns the cell area in µm² under a library snapshot.
func (n *Netlist) Area(lib *stdcell.Library) float64 {
	a := 0.0
	for _, g := range n.Gates {
		a += lib.Cell(g.Kind).AreaUm2
	}
	return a
}

// Leakage returns the total static power in µW at the library's temperature.
func (n *Netlist) Leakage(lib *stdcell.Library) float64 {
	l := 0.0
	for _, g := range n.Gates {
		l += lib.Cell(g.Kind).LeakUW
	}
	return l
}

// CEff returns the effective switched capacitance in fF per input
// transition, including a glitching multiplier typical of array arithmetic.
func (n *Netlist) CEff(lib *stdcell.Library, netWireUm float64) float64 {
	const glitchFactor = 3.2
	ld := n.loads(lib, netWireUm)
	c := 0.0
	for i := range n.Gates {
		c += ld[i]
	}
	return c * glitchFactor
}

// NewMultiplier constructs an n×n unsigned array multiplier with
// Wallace-tree reduction and a prefix carry-lookahead final adder.
func NewMultiplier(n int) *Netlist {
	if n < 2 {
		panic("dsp: multiplier width must be ≥ 2")
	}
	nl := &Netlist{}

	// Partial products: one NAND2+INV pair per bit, modeled as NAND2 (the
	// inversion is absorbed into downstream polarity).
	cols := make([][]int, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pp := nl.add(stdcell.NAND2, -1, -1)
			cols[i+j] = append(cols[i+j], pp)
		}
	}

	// Wallace reduction: repeatedly apply full adders (3→2) and half adders
	// (2→2, modeled by XOR2 for sum and NAND2 for carry) until every column
	// holds at most two wires.
	for {
		reduced := false
		next := make([][]int, len(cols))
		for c, wires := range cols {
			i := 0
			for len(wires)-i >= 3 {
				sum := nl.add(stdcell.FA, wires[i], wires[i+1], wires[i+2])
				carry := nl.add(stdcell.FA, wires[i], wires[i+1], wires[i+2])
				next[c] = append(next[c], sum)
				if c+1 < len(next) {
					next[c+1] = append(next[c+1], carry)
				}
				i += 3
				reduced = true
			}
			if len(wires)-i == 2 && len(next[c])+2 > 2 {
				sum := nl.add(stdcell.XOR2, wires[i], wires[i+1])
				carry := nl.add(stdcell.NAND2, wires[i], wires[i+1])
				next[c] = append(next[c], sum)
				if c+1 < len(next) {
					next[c+1] = append(next[c+1], carry)
				}
				i += 2
				reduced = true
			}
			next[c] = append(next[c], wires[i:]...)
		}
		cols = next
		if !reduced {
			break
		}
	}

	// Final carry-propagate addition over the two remaining rows: a
	// Kogge-Stone-style prefix network — generate/propagate per bit, log2
	// prefix levels of AOI21 combines, and a final sum XOR.
	width := len(cols)
	gen := make([]int, width)
	pro := make([]int, width)
	for c := 0; c < width; c++ {
		switch len(cols[c]) {
		case 0:
			gen[c], pro[c] = -1, -1
		case 1:
			gen[c], pro[c] = -1, cols[c][0]
		default:
			gen[c] = nl.add(stdcell.NAND2, cols[c][0], cols[c][1])
			pro[c] = nl.add(stdcell.XOR2, cols[c][0], cols[c][1])
		}
	}
	levels := int(math.Ceil(math.Log2(float64(width))))
	for l, span := 0, 1; l < levels; l, span = l+1, span*2 {
		ng := make([]int, width)
		copy(ng, gen)
		for c := span; c < width; c++ {
			lo := c - span
			if gen[c] >= 0 || gen[lo] >= 0 {
				fanins := []int{}
				for _, f := range []int{gen[c], pro[c], gen[lo]} {
					if f >= 0 {
						fanins = append(fanins, f)
					}
				}
				if len(fanins) > 0 {
					ng[c] = nl.add(stdcell.AOI21, fanins...)
				}
			}
		}
		gen = ng
	}
	for c := 1; c < width; c++ {
		if pro[c] >= 0 && gen[c-1] >= 0 {
			nl.Outputs = append(nl.Outputs, nl.add(stdcell.XOR2, pro[c], gen[c-1]))
		} else if pro[c] >= 0 {
			nl.Outputs = append(nl.Outputs, pro[c])
		}
	}
	return nl
}

// Block is the hard DSP block: input registers, an n×n multiplier stage with
// an accumulate adder, and output registers — the Stratix-like block of the
// paper's reference [31]. DriveScale is the synthesis drive-strength knob
// the sizing engine optimizes per thermal corner.
type Block struct {
	kit  *techmodel.Kit
	nl   *Netlist
	n    int
	regs int

	// DriveScale multiplies every cell's drive width; 1.0 is nominal.
	DriveScale float64
	// PNSkew is the P:N width split of the cells (synthesis corner knob).
	PNSkew float64
}

// NewBlockWidth builds an n×n block; smaller widths are useful in tests.
func NewBlockWidth(kit *techmodel.Kit, n int) *Block {
	return &Block{
		kit: kit, nl: NewMultiplier(n), n: n, regs: 2*n + 2*2*n,
		DriveScale: 1.0, PNSkew: stdcell.NominalSkew(kit),
	}
}

// WithKit returns a copy of the block evaluated against a different process
// kit, preserving the synthesized drive scale and P:N skew. The gate-level
// netlist is immutable after construction and is shared, not copied.
func (b *Block) WithKit(kit *techmodel.Kit) *Block {
	out := *b
	out.kit = kit
	return &out
}

func (b *Block) lib(tempC float64) *stdcell.Library {
	return stdcell.CharacterizeScaled(b.kit, tempC, b.DriveScale, b.PNSkew)
}

// netWireUm is the per-net wire length at the current drive scale: it grows
// with the square root of the cell-area factor.
func (b *Block) netWireUm() float64 {
	return baseNetWireUm * math.Sqrt(0.55+0.45*b.DriveScale)
}

// Delay returns the registered stage delay in ps at tempC: clock-to-Q +
// combinational critical path + setup.
func (b *Block) Delay(tempC float64) float64 {
	lib := b.lib(tempC)
	return lib.ClkToQ(4) + b.nl.CriticalPath(lib, b.netWireUm()) + lib.Setup()
}

// Area returns the block area in µm² including registers.
func (b *Block) Area() float64 {
	lib := b.lib(techmodel.T0)
	return b.nl.Area(lib) + float64(b.regs)*lib.Cell(stdcell.DFF).AreaUm2
}

// Leakage returns static power in µW at tempC.
func (b *Block) Leakage(tempC float64) float64 {
	lib := b.lib(tempC)
	return b.nl.Leakage(lib) + float64(b.regs)*lib.Cell(stdcell.DFF).LeakUW
}

// CEff returns switched capacitance in fF per active cycle.
func (b *Block) CEff() float64 {
	lib := b.lib(techmodel.T0)
	return b.nl.CEff(lib, b.netWireUm()) + float64(b.regs)*8
}
