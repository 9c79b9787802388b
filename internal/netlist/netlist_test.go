package netlist

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// tiny builds a small valid netlist: 2 PIs, a LUT, an FF, a BRAM, a PO.
func tiny(t *testing.T) *Netlist {
	t.Helper()
	n := New("tiny")
	a := n.Add(Input, "a", nil, 0)
	b := n.Add(Input, "b", nil, 0)
	l := n.Add(LUT, "l", []int{a, b}, 0b0110) // XOR
	f := n.Add(FF, "f", []int{l}, 0)
	m := n.Add(BRAM, "m", []int{f, a}, 0)
	l2 := n.Add(LUT, "l2", []int{m, f}, 0b1000)
	n.Add(Output, "o", []int{l2}, 0)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFreezeAndStats(t *testing.T) {
	n := tiny(t)
	s := n.Stats()
	if s.Inputs != 2 || s.Outputs != 1 || s.LUTs != 2 || s.FFs != 1 || s.BRAMs != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.Nets == 0 || s.String() == "" {
		t.Fatal("net count / formatting broken")
	}
}

func TestSinksDerived(t *testing.T) {
	n := tiny(t)
	// Block 0 ("a") feeds the LUT and the BRAM.
	if len(n.Sinks[0]) != 2 {
		t.Fatalf("input a should fan out to 2 blocks, got %d", len(n.Sinks[0]))
	}
}

func TestFreezeRejectsMalformed(t *testing.T) {
	cases := []func() *Netlist{
		func() *Netlist { // input with inputs
			n := New("x")
			a := n.Add(Input, "a", nil, 0)
			n.Blocks[a].Inputs = []int{a}
			return n
		},
		func() *Netlist { // FF with two inputs
			n := New("x")
			a := n.Add(Input, "a", nil, 0)
			n.Add(FF, "f", []int{a, a}, 0)
			return n
		},
		func() *Netlist { // LUT with no inputs
			n := New("x")
			n.Add(LUT, "l", nil, 0)
			return n
		},
		func() *Netlist { // dangling reference
			n := New("x")
			n.Add(LUT, "l", []int{7}, 0)
			return n
		},
		func() *Netlist { // reading an output pad
			n := New("x")
			a := n.Add(Input, "a", nil, 0)
			o := n.Add(Output, "o", []int{a}, 0)
			n.Add(LUT, "l", []int{o}, 0)
			return n
		},
	}
	for i, mk := range cases {
		if err := mk().Freeze(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// A LUT wider than Truth's 64 minterms is an error: LUTEval would wrap its
// minterms mod 64.
func TestFreezeRejectsWideLUT(t *testing.T) {
	for k, wantErr := range map[int]bool{6: false, 7: true} {
		n := New("wide")
		var ins []int
		for i := 0; i < k; i++ {
			ins = append(ins, n.Add(Input, fmt.Sprintf("i%d", i), nil, 0))
		}
		n.Add(LUT, "l", ins, 1)
		if err := n.Freeze(); (err != nil) != wantErr {
			t.Fatalf("%d-input LUT: Freeze error %v, want error %t", k, err, wantErr)
		}
	}
}

func TestFreezeDetectsCombinationalLoop(t *testing.T) {
	n := New("loop")
	a := n.Add(Input, "a", nil, 0)
	l1 := n.Add(LUT, "l1", nil, 0)
	l2 := n.Add(LUT, "l2", []int{l1, a}, 0)
	n.Blocks[l1].Inputs = []int{l2, a}
	if err := n.Freeze(); err == nil {
		t.Fatal("combinational loop must be rejected")
	}
}

func TestFFBreaksLoops(t *testing.T) {
	// LUT → FF → same LUT is a legal sequential loop.
	n := New("seqloop")
	a := n.Add(Input, "a", nil, 0)
	l := n.Add(LUT, "l", nil, 0)
	f := n.Add(FF, "f", []int{l}, 0)
	n.Blocks[l].Inputs = []int{f, a}
	n.Add(Output, "o", []int{l}, 0)
	if err := n.Freeze(); err != nil {
		t.Fatalf("sequential loop must be legal: %v", err)
	}
}

func TestLUTEval(t *testing.T) {
	b := Block{Type: LUT, Truth: 0b0110}
	if b.LUTEval(0) || !b.LUTEval(1) || !b.LUTEval(2) || b.LUTEval(3) {
		t.Fatal("XOR truth table broken")
	}
}

func TestComboOrderRespectsDependencies(t *testing.T) {
	n := tiny(t)
	order := n.ComboOrder()
	pos := map[int]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range order {
		b := &n.Blocks[id]
		for _, in := range b.Inputs {
			if n.Blocks[in].Type == LUT {
				if pos[in] >= pos[id] {
					t.Fatalf("block %d ordered before its LUT input %d", id, in)
				}
			}
		}
	}
}

func TestBLIFRoundTrip(t *testing.T) {
	n := tiny(t)
	var buf bytes.Buffer
	if err := n.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseBLIF(&buf)
	if err != nil {
		t.Fatalf("parse: %v\nblif:\n%s", err, buf.String())
	}
	a, b := n.Stats(), parsed.Stats()
	if a != b {
		t.Fatalf("round-trip stats mismatch: %+v vs %+v", a, b)
	}
}

// randomNetlist builds a random but valid layered netlist.
func randomNetlist(seed int64) *Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := New("rand")
	var pool []int
	for i := 0; i < 4+rng.Intn(5); i++ {
		pool = append(pool, n.Add(Input, nameOf("pi", i), nil, 0))
	}
	for i := 0; i < 5+rng.Intn(30); i++ {
		k := 1 + rng.Intn(4)
		seen := map[int]bool{}
		var ins []int
		for len(ins) < k {
			c := pool[rng.Intn(len(pool))]
			if !seen[c] {
				seen[c] = true
				ins = append(ins, c)
			}
		}
		id := n.Add(LUT, nameOf("l", i), ins, rng.Uint64())
		pool = append(pool, id)
		if rng.Intn(3) == 0 {
			pool = append(pool, n.Add(FF, nameOf("f", i), []int{id}, 0))
		}
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		n.Add(Output, nameOf("po", i), []int{pool[len(pool)-1-i]}, 0)
	}
	return n
}

func nameOf(prefix string, i int) string {
	return prefix + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// Property: any generated netlist survives a BLIF round trip with identical
// composition and fan-out structure.
func TestBLIFRoundTripProperty(t *testing.T) {
	f := func(seed int16) bool {
		n := randomNetlist(int64(seed))
		if err := n.Freeze(); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := n.WriteBLIF(&buf); err != nil {
			return false
		}
		p, err := ParseBLIF(&buf)
		if err != nil {
			return false
		}
		if n.Stats() != p.Stats() {
			return false
		}
		// Fan-out multiset must survive.
		fanouts := func(x *Netlist) map[int]int {
			m := map[int]int{}
			for _, s := range x.Sinks {
				m[len(s)]++
			}
			return m
		}
		fa, fb := fanouts(n), fanouts(p)
		if len(fa) != len(fb) {
			return false
		}
		for k, v := range fa {
			if fb[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParseBLIFRejectsGarbage(t *testing.T) {
	bad := []string{
		"cube before names\n01 1\n",
		".names a b\n01 1\n",          // cube width mismatch
		".names a b\n0- 0\n",          // unsupported off-set cube
		".subckt unknown in0=a out=b", // unknown macro
		".latch a",                    // malformed latch
		".frobnicate x",
		".names a b\n1 1\n.names a b\n1 1",  // b driven twice
		".latch a a re clk 0",               // a is already a primary input
		".names out_x",                      // output pad without a driver
		".names a a a a a a a b\n------- 1", // wider than a 6-LUT
		".names a b\n2 1",                   // cube character
		".subckt dsp in0= out=b",            // empty net name
		".names a b out_x\n11 1",            // output pad fed by a two-input function
		".names a out_x\n0 1",               // output pad fed by an inverter
	}
	for i, s := range bad {
		if _, err := ParseBLIF(bytes.NewBufferString(".model m\n.inputs a\n.outputs o\n" + s + "\n.end\n")); err == nil {
			t.Fatalf("case %d: expected parse error", i)
		}
	}
	if _, err := ParseBLIF(bytes.NewBufferString(".inputs a \\\n")); err == nil {
		t.Fatal("a line continuation at the end of input parsed")
	}
}

// A line ending in a backslash continues on the next line.
func TestParseBLIFLineContinuation(t *testing.T) {
	n, err := ParseBLIF(bytes.NewBufferString(".inputs a b\n.subckt dsp in0=a \\\n  in1=b out=m # product\n.names m \\\nout_y\n1 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s := n.Stats(); s.DSPs != 1 || s.Inputs != 2 || s.Outputs != 1 || len(n.Blocks[2].Inputs) != 2 {
		t.Fatalf("got %+v, blocks %+v; want a two-input DSP driving one output", s, n.Blocks)
	}
}

func TestWriteBLIFDeterministic(t *testing.T) {
	n := randomNetlist(99)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := n.WriteBLIF(&a); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteBLIF(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("BLIF output not deterministic")
	}
}
