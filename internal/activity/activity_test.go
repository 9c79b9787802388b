package activity

import (
	"math"
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/netlist"
)

// chain builds PI → LUT(buffer) → LUT(inverter) → PO.
func chain(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("chain")
	a := n.Add(netlist.Input, "a", nil, 0)
	buf := n.Add(netlist.LUT, "buf", []int{a}, 0b10) // f(x)=x
	inv := n.Add(netlist.LUT, "inv", []int{buf}, 0b01)
	n.Add(netlist.Output, "o", []int{inv}, 0)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBufferAndInverterPreserveActivity(t *testing.T) {
	n := chain(t)
	act := Estimate(n, 0.3)
	if math.Abs(act[1].Density-0.3) > 1e-9 || math.Abs(act[2].Density-0.3) > 1e-9 {
		t.Fatalf("single-input buffer/inverter must pass density through: %+v", act[:3])
	}
	if math.Abs(act[1].P1-0.5) > 1e-9 {
		t.Fatalf("buffer of a 0.5-probability input must stay 0.5, got %g", act[1].P1)
	}
	if math.Abs(act[2].P1-0.5) > 1e-9 {
		t.Fatalf("inverter of 0.5 must stay 0.5, got %g", act[2].P1)
	}
}

func TestConstantLUTIsInactive(t *testing.T) {
	n := netlist.New("const")
	a := n.Add(netlist.Input, "a", nil, 0)
	k := n.Add(netlist.LUT, "k", []int{a}, 0) // always 0
	n.Add(netlist.Output, "o", []int{k}, 0)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	act := Estimate(n, 0.5)
	if act[k].P1 != 0 || act[k].Density != 0 {
		t.Fatalf("constant-0 LUT must be silent: %+v", act[k])
	}
}

func TestANDGateStatistics(t *testing.T) {
	n := netlist.New("and")
	a := n.Add(netlist.Input, "a", nil, 0)
	b := n.Add(netlist.Input, "b", nil, 0)
	g := n.Add(netlist.LUT, "g", []int{a, b}, 0b1000) // AND
	n.Add(netlist.Output, "o", []int{g}, 0)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	act := Estimate(n, 0.4)
	if math.Abs(act[g].P1-0.25) > 1e-9 {
		t.Fatalf("AND of two 0.5 inputs must be 0.25, got %g", act[g].P1)
	}
	// Boolean difference of AND w.r.t. each input has probability 0.5, so
	// the output density is 0.4·0.5 + 0.4·0.5 = 0.4... halved per pairing:
	// each toggle propagates iff the other input is 1.
	want := 0.4*0.5 + 0.4*0.5
	if math.Abs(act[g].Density-want) > 1e-9 {
		t.Fatalf("AND density %g, want %g", act[g].Density, want)
	}
}

func TestFFDampsActivity(t *testing.T) {
	n := netlist.New("ff")
	a := n.Add(netlist.Input, "a", nil, 0)
	l := n.Add(netlist.LUT, "l", []int{a}, 0b10)
	f := n.Add(netlist.FF, "f", []int{l}, 0)
	n.Add(netlist.Output, "o", []int{f}, 0)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	act := Estimate(n, 0.9)
	if act[f].Density > 1 {
		t.Fatalf("FF output density must be at most one transition per cycle, got %g", act[f].Density)
	}
}

func TestAllStatsBounded(t *testing.T) {
	p, _ := bench.ByName("raygentop")
	nl, err := bench.Generate(p.Scaled(1.0/64), 7)
	if err != nil {
		t.Fatal(err)
	}
	act := Estimate(nl, 0.15)
	if len(act) != len(nl.Blocks) {
		t.Fatal("activity vector length mismatch")
	}
	for i, s := range act {
		if s.P1 < 0 || s.P1 > 1 {
			t.Fatalf("block %d: probability %g out of range", i, s.P1)
		}
		if s.Density < 0 || s.Density > 2 {
			t.Fatalf("block %d: density %g out of range", i, s.Density)
		}
		if math.IsNaN(s.P1) || math.IsNaN(s.Density) {
			t.Fatalf("block %d: NaN stats", i)
		}
	}
}

func TestSequentialConvergence(t *testing.T) {
	// A counter-like loop: FF feeding an inverter feeding the FF. The
	// fixpoint iteration must settle and keep the probability at 0.5.
	n := netlist.New("osc")
	f := n.Add(netlist.FF, "f", nil, 0)
	inv := n.Add(netlist.LUT, "inv", []int{f}, 0b01)
	n.Blocks[f].Inputs = []int{inv}
	n.Add(netlist.Output, "o", []int{f}, 0)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	act := Estimate(n, 0.1)
	if math.Abs(act[f].P1-0.5) > 0.05 {
		t.Fatalf("toggling FF probability %g, want ≈0.5", act[f].P1)
	}
}

func TestMacroActivityDerived(t *testing.T) {
	n := netlist.New("macro")
	a := n.Add(netlist.Input, "a", nil, 0)
	m := n.Add(netlist.BRAM, "m", []int{a}, 0)
	d := n.Add(netlist.DSP, "d", []int{a, m}, 0)
	l := n.Add(netlist.LUT, "l", []int{d}, 0b10)
	n.Add(netlist.Output, "o", []int{l}, 0)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	act := Estimate(n, 0.5)
	if act[m].Density <= 0 || act[d].Density <= 0 {
		t.Fatal("macro outputs must carry activity")
	}
	if act[d].Density <= act[m].Density {
		t.Fatal("multiplier outputs should be more active than RAM outputs")
	}
}
