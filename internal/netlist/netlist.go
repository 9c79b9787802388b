// Package netlist holds the technology-mapped logical netlist the CAD flow
// operates on: K-input LUTs, flip-flops, Block-RAM and DSP macro instances,
// and the nets connecting them. It corresponds to the post-synthesis BLIF
// that VPR consumes in the paper's flow.
//
// The representation is single-driver: every block drives exactly one net
// (wide macros like BRAM data buses are modeled as one logical net, which is
// the granularity placement, routing, and timing care about here).
package netlist

import (
	"fmt"
)

// BlockType enumerates the primitive kinds a netlist may contain.
type BlockType int

const (
	// Input is a primary input pad.
	Input BlockType = iota
	// Output is a primary output pad.
	Output
	// LUT is a K-input look-up table.
	LUT
	// FF is a D flip-flop.
	FF
	// BRAM is a block RAM macro instance.
	BRAM
	// DSP is a DSP (multiply-accumulate) macro instance.
	DSP
)

var blockTypeNames = [...]string{"input", "output", "lut", "ff", "bram", "dsp"}

func (t BlockType) String() string {
	if t < 0 || int(t) >= len(blockTypeNames) {
		return fmt.Sprintf("BlockType(%d)", int(t))
	}
	return blockTypeNames[t]
}

// Block is one primitive instance. Every block except Output drives exactly
// one net whose ID equals the block's own ID (single-driver form).
type Block struct {
	ID   int
	Type BlockType
	Name string
	// Inputs lists the IDs of the nets (equivalently, driving blocks) this
	// block reads. Outputs have exactly one input; inputs have none.
	Inputs []int
	// Truth is the LUT truth table; the function of input minterm m is
	// bit (Truth >> m) & 1. Only meaningful for LUT blocks, which Freeze
	// bounds to maxLUTInputs inputs.
	Truth uint64
}

// maxLUTInputs is the widest LUT a netlist may hold: Truth holds the 2^6
// minterms of a 6-input LUT.
const maxLUTInputs = 6

// Netlist is the mapped design.
type Netlist struct {
	Name   string
	Blocks []Block
	// Sinks[i] lists the block IDs reading net i (the fan-out of block i).
	// It is derived by Freeze and must not be mutated directly.
	Sinks [][]int
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist { return &Netlist{Name: name} }

// Add appends a block and returns its ID. The caller fills Inputs with IDs
// of previously (or later) added blocks; call Freeze when done.
func (n *Netlist) Add(t BlockType, name string, inputs []int, truth uint64) int {
	id := len(n.Blocks)
	n.Blocks = append(n.Blocks, Block{ID: id, Type: t, Name: name, Inputs: inputs, Truth: truth})
	return id
}

// Freeze derives the fan-out lists and validates the structure.
func (n *Netlist) Freeze() error {
	n.Sinks = make([][]int, len(n.Blocks))
	for i := range n.Blocks {
		b := &n.Blocks[i]
		switch b.Type {
		case Input:
			if len(b.Inputs) != 0 {
				return fmt.Errorf("netlist %s: input %q has %d inputs", n.Name, b.Name, len(b.Inputs))
			}
		case Output, FF:
			if len(b.Inputs) != 1 {
				return fmt.Errorf("netlist %s: %s %q needs exactly 1 input, has %d", n.Name, b.Type, b.Name, len(b.Inputs))
			}
		case LUT:
			if len(b.Inputs) == 0 {
				return fmt.Errorf("netlist %s: LUT %q has no inputs", n.Name, b.Name)
			}
			if len(b.Inputs) > maxLUTInputs {
				return fmt.Errorf("netlist %s: LUT %q has %d inputs, at most %d supported", n.Name, b.Name, len(b.Inputs), maxLUTInputs)
			}
		case BRAM, DSP:
			if len(b.Inputs) == 0 {
				return fmt.Errorf("netlist %s: macro %q has no inputs", n.Name, b.Name)
			}
		default:
			return fmt.Errorf("netlist %s: block %q has unknown type %d", n.Name, b.Name, int(b.Type))
		}
		for _, in := range b.Inputs {
			if in < 0 || in >= len(n.Blocks) {
				return fmt.Errorf("netlist %s: block %q reads undefined net %d", n.Name, b.Name, in)
			}
			if n.Blocks[in].Type == Output {
				return fmt.Errorf("netlist %s: block %q reads from output pad %q", n.Name, b.Name, n.Blocks[in].Name)
			}
			n.Sinks[in] = append(n.Sinks[in], b.ID)
		}
	}
	return n.checkCombinationalLoops()
}

// checkCombinationalLoops verifies the combinational subgraph (everything
// except FF/BRAM/DSP output boundaries) is acyclic.
func (n *Netlist) checkCombinationalLoops() error {
	// Kahn's algorithm over combinational edges only: an edge u→v exists
	// when v is combinational (LUT/Output) and reads u. Sequential and
	// macro blocks launch fresh timing paths, so edges into them terminate.
	indeg := make([]int, len(n.Blocks))
	for i := range n.Blocks {
		b := &n.Blocks[i]
		if b.Type == LUT || b.Type == Output {
			indeg[i] = len(b.Inputs)
		}
	}
	queue := make([]int, 0, len(n.Blocks))
	for i := range n.Blocks {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, v := range n.Sinks[u] {
			t := n.Blocks[v].Type
			if t != LUT && t != Output {
				continue
			}
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	// Blocks never enqueued because of a cycle keep indeg > 0.
	for i, d := range indeg {
		if d > 0 {
			return fmt.Errorf("netlist %s: combinational loop through %q", n.Name, n.Blocks[i].Name)
		}
	}
	_ = seen
	return nil
}

// Stats summarizes the netlist composition.
type Stats struct {
	Inputs, Outputs, LUTs, FFs, BRAMs, DSPs int
	Nets                                    int
}

// Stats counts the blocks by type.
func (n *Netlist) Stats() Stats {
	var s Stats
	for i := range n.Blocks {
		switch n.Blocks[i].Type {
		case Input:
			s.Inputs++
		case Output:
			s.Outputs++
		case LUT:
			s.LUTs++
		case FF:
			s.FFs++
		case BRAM:
			s.BRAMs++
		case DSP:
			s.DSPs++
		}
	}
	for i := range n.Sinks {
		if len(n.Sinks[i]) > 0 {
			s.Nets++
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%d LUTs, %d FFs, %d BRAMs, %d DSPs, %d PIs, %d POs, %d nets",
		s.LUTs, s.FFs, s.BRAMs, s.DSPs, s.Inputs, s.Outputs, s.Nets)
}

// LUTEval evaluates the block's truth table on the given input bits (bit i
// of minterm = value of input i). Only valid for LUT blocks.
func (b *Block) LUTEval(minterm int) bool {
	return (b.Truth>>(uint(minterm)%64))&1 == 1
}

// ComboOrder returns the LUT and Output blocks in combinational dependency
// order (sequential and macro blocks launch fresh paths and are therefore
// sources, not ordered members). Freeze must have succeeded.
func (n *Netlist) ComboOrder() []int {
	indeg := make([]int, len(n.Blocks))
	for i := range n.Blocks {
		b := &n.Blocks[i]
		if b.Type != LUT && b.Type != Output {
			continue
		}
		for _, in := range b.Inputs {
			if n.Blocks[in].Type == LUT {
				indeg[i]++
			}
		}
	}
	var queue, order []int
	for i := range n.Blocks {
		b := &n.Blocks[i]
		if (b.Type == LUT || b.Type == Output) && indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range n.Sinks[u] {
			t := n.Blocks[v].Type
			if t != LUT && t != Output {
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
