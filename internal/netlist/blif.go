package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteBLIF serializes the netlist in a BLIF dialect compatible with the
// VTR-style flow the paper uses: .names for LUTs (with the truth table
// emitted as minterm cubes), .latch for flip-flops, and .subckt bram/dsp for
// the hard macros.
func (n *Netlist) WriteBLIF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", n.Name)

	var ins, outs []string
	for i := range n.Blocks {
		switch n.Blocks[i].Type {
		case Input:
			ins = append(ins, netName(n, i))
		case Output:
			outs = append(outs, "out_"+n.Blocks[i].Name)
		}
	}
	fmt.Fprintf(bw, ".inputs %s\n", strings.Join(ins, " "))
	fmt.Fprintf(bw, ".outputs %s\n", strings.Join(outs, " "))

	for i := range n.Blocks {
		b := &n.Blocks[i]
		switch b.Type {
		case LUT:
			fmt.Fprintf(bw, ".names")
			for _, in := range b.Inputs {
				fmt.Fprintf(bw, " %s", netName(n, in))
			}
			fmt.Fprintf(bw, " %s\n", netName(n, i))
			k := len(b.Inputs)
			for m := 0; m < 1<<uint(k); m++ {
				if b.LUTEval(m) {
					for bit := 0; bit < k; bit++ {
						if m>>uint(bit)&1 == 1 {
							fmt.Fprint(bw, "1")
						} else {
							fmt.Fprint(bw, "0")
						}
					}
					fmt.Fprintln(bw, " 1")
				}
			}
		case FF:
			fmt.Fprintf(bw, ".latch %s %s re clk 0\n", netName(n, b.Inputs[0]), netName(n, i))
		case BRAM, DSP:
			kind := "bram"
			if b.Type == DSP {
				kind = "dsp"
			}
			fmt.Fprintf(bw, ".subckt %s", kind)
			for j, in := range b.Inputs {
				fmt.Fprintf(bw, " in%d=%s", j, netName(n, in))
			}
			fmt.Fprintf(bw, " out=%s\n", netName(n, i))
		case Output:
			// Outputs are buffers in BLIF.
			fmt.Fprintf(bw, ".names %s out_%s\n1 1\n", netName(n, b.Inputs[0]), b.Name)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func netName(n *Netlist, id int) string {
	b := &n.Blocks[id]
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("n%d", id)
}

// maxLUTInputs is the widest .names ParseBLIF accepts: Block.Truth holds
// the 2^6 minterms of a 6-input LUT.
const maxLUTInputs = 6

// ParseBLIF reads the dialect WriteBLIF emits (plus tolerant whitespace,
// comment and line-continuation handling) back into a Netlist. It supports
// single-output .names of at most six inputs with "1"-terminated cubes,
// .latch, and .subckt bram/dsp. Malformed input is an error, never a panic.
func ParseBLIF(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // grows from bufio.Scanner's default up to 16 MiB lines

	// First pass: gather logical statements, joining a line that ends in a
	// backslash with the next.
	var stmts []string
	var cur strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if strings.HasSuffix(line, "\\") {
			cur.WriteString(strings.TrimSuffix(line, "\\"))
			cur.WriteString(" ")
			continue
		}
		if cur.Len() > 0 {
			cur.WriteString(line)
			line = strings.TrimSpace(cur.String())
			cur.Reset()
		}
		switch {
		case line == "": // blank or comment-only
		case strings.HasPrefix(line, "."):
			stmts = append(stmts, line)
		case len(stmts) == 0 || !strings.HasPrefix(stmts[len(stmts)-1], ".names"):
			return nil, fmt.Errorf("blif: cube %q outside .names", line)
		default:
			// Truth-table cube: attach to the previous .names statement.
			stmts[len(stmts)-1] += "\n" + line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur.Len() > 0 {
		return nil, fmt.Errorf("blif: line continuation at end of input")
	}

	n := New("parsed")
	ids := map[string]int{}
	// ensure returns the block ID driving the named net, creating a
	// placeholder that a later definition may overwrite.
	pending := map[string]bool{}
	ensure := func(name string) (int, error) {
		if err := checkNetName(name); err != nil {
			return 0, err
		}
		if id, ok := ids[name]; ok {
			return id, nil
		}
		id := n.Add(Input, name, nil, 0)
		ids[name] = id
		pending[name] = true
		return id, nil
	}
	define := func(name string, t BlockType, inputs []int, truth uint64) error {
		if err := checkNetName(name); err != nil {
			return err
		}
		if id, ok := ids[name]; ok && pending[name] {
			n.Blocks[id].Type = t
			n.Blocks[id].Inputs = inputs
			n.Blocks[id].Truth = truth
			delete(pending, name)
			return nil
		} else if ok {
			// A re-declared input is harmless; any other second
			// definition gives the net two drivers.
			if t == Input {
				return nil
			}
			return fmt.Errorf("blif: net %s has two drivers", name)
		}
		ids[name] = n.Add(t, name, inputs, truth)
		return nil
	}

	for _, st := range stmts {
		lines := strings.Split(st, "\n")
		fields := strings.Fields(lines[0])
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				n.Name = fields[1]
			}
		case ".inputs":
			for _, f := range fields[1:] {
				if err := define(f, Input, nil, 0); err != nil {
					return nil, err
				}
				delete(pending, f)
			}
		case ".outputs":
			// Output pads are created when their driver cube appears; the
			// declaration alone carries no structure we need.
		case ".names":
			args := fields[1:]
			if len(args) == 0 {
				return nil, fmt.Errorf("blif: empty .names")
			}
			outName := args[len(args)-1]
			inNames := args[:len(args)-1]
			if len(inNames) > maxLUTInputs {
				return nil, fmt.Errorf("blif: .names %s has %d inputs, at most %d supported", outName, len(inNames), maxLUTInputs)
			}
			inIDs := make([]int, len(inNames))
			for i, in := range inNames {
				var err error
				if inIDs[i], err = ensure(in); err != nil {
					return nil, err
				}
			}
			var truth uint64
			for _, cube := range lines[1:] {
				cf := strings.Fields(cube)
				if len(cf) != 2 || cf[1] != "1" {
					return nil, fmt.Errorf("blif: unsupported cube %q", cube)
				}
				if len(cf[0]) != len(inNames) {
					return nil, fmt.Errorf("blif: cube width %d != %d inputs", len(cf[0]), len(inNames))
				}
				if strings.Trim(cf[0], "01-") != "" {
					return nil, fmt.Errorf("blif: cube %q has a character other than 0, 1 or -", cf[0])
				}
				// Expand cubes with don't-cares into minterms.
				expandCube(cf[0], 0, 0, &truth)
			}
			t := LUT
			if strings.HasPrefix(outName, "out_") {
				// An output pad is written as a buffer of its driver (one
				// input, the single cube "1 1"); any other function would
				// be dropped with its truth table.
				if len(inIDs) != 1 || len(lines) != 2 || truth != 1<<1 {
					return nil, fmt.Errorf("blif: output %s must buffer one driver with the single cube \"1 1\"", outName)
				}
				t, truth = Output, 0
			}
			if err := define(outName, t, inIDs, truth); err != nil {
				return nil, err
			}
			if t == Output {
				n.Blocks[ids[outName]].Name = strings.TrimPrefix(outName, "out_")
			}
		case ".latch":
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif: malformed .latch %q", lines[0])
			}
			d, err := ensure(fields[1])
			if err != nil {
				return nil, err
			}
			if err := define(fields[2], FF, []int{d}, 0); err != nil {
				return nil, err
			}
		case ".subckt":
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif: malformed .subckt %q", lines[0])
			}
			var t BlockType
			switch fields[1] {
			case "bram":
				t = BRAM
			case "dsp":
				t = DSP
			default:
				return nil, fmt.Errorf("blif: unknown subckt %q", fields[1])
			}
			var inIDs []int
			outName := ""
			// Sort pin bindings for deterministic input order.
			binds := append([]string(nil), fields[2:]...)
			sort.Slice(binds, func(i, j int) bool { return pinKey(binds[i]) < pinKey(binds[j]) })
			for _, b := range binds {
				eq := strings.SplitN(b, "=", 2)
				if len(eq) != 2 {
					return nil, fmt.Errorf("blif: malformed binding %q", b)
				}
				if eq[0] == "out" {
					outName = eq[1]
					continue
				}
				id, err := ensure(eq[1])
				if err != nil {
					return nil, err
				}
				inIDs = append(inIDs, id)
			}
			if outName == "" {
				return nil, fmt.Errorf("blif: subckt without out pin")
			}
			if err := define(outName, t, inIDs, 0); err != nil {
				return nil, err
			}
		case ".end":
		default:
			return nil, fmt.Errorf("blif: unsupported directive %q", fields[0])
		}
	}
	if err := n.Freeze(); err != nil {
		return nil, err
	}
	return n, nil
}

// checkNetName rejects a net name WriteBLIF could not write back: an empty
// one, or one ending in the backslash that continues a line.
func checkNetName(name string) error {
	if name == "" || strings.HasSuffix(name, "\\") {
		return fmt.Errorf("blif: bad net name %q", name)
	}
	return nil
}

// pinKey orders in0 < in1 < … < in10 numerically, out last.
func pinKey(bind string) int {
	name := strings.SplitN(bind, "=", 2)[0]
	if name == "out" {
		return 1 << 30
	}
	if v, err := strconv.Atoi(strings.TrimPrefix(name, "in")); err == nil {
		return v
	}
	return 1 << 29
}

// expandCube sets truth-table bits for every minterm matched by the cube
// (characters '0', '1', '-').
func expandCube(cube string, pos int, acc uint64, truth *uint64) {
	if pos == len(cube) {
		*truth |= 1 << (acc % 64)
		return
	}
	switch cube[pos] {
	case '0':
		expandCube(cube, pos+1, acc, truth)
	case '1':
		expandCube(cube, pos+1, acc|1<<uint(pos), truth)
	case '-':
		expandCube(cube, pos+1, acc, truth)
		expandCube(cube, pos+1, acc|1<<uint(pos), truth)
	}
}
