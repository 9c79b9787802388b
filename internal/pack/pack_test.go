package pack

import (
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/netlist"
)

func testNetlist(t *testing.T, name string, scale float64) *netlist.Netlist {
	t.Helper()
	p, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(p.Scaled(scale), bench.SeedFor(name))
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestPackCoversEveryBlockOnce(t *testing.T) {
	nl := testNetlist(t, "sha", 1.0/32)
	res, err := Pack(nl, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, c := range res.Clusters {
		for _, e := range c.BLEs {
			for _, id := range []int{e.LUT, e.FF} {
				if id >= 0 {
					seen[id]++
				}
			}
		}
	}
	for i := range nl.Blocks {
		switch nl.Blocks[i].Type {
		case netlist.LUT, netlist.FF:
			if seen[i] != 1 {
				t.Fatalf("block %d packed %d times", i, seen[i])
			}
			if res.ClusterOf[i] < 0 {
				t.Fatalf("block %d has no cluster", i)
			}
		default:
			if res.ClusterOf[i] != -1 {
				t.Fatalf("non-clusterable block %d assigned to a cluster", i)
			}
		}
	}
}

func TestPackRespectsShape(t *testing.T) {
	nl := testNetlist(t, "raygentop", 1.0/32)
	const n, inputs = 10, 40
	res, err := Pack(nl, n, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if len(c.BLEs) > n {
			t.Fatalf("cluster %d holds %d BLEs (max %d)", c.ID, len(c.BLEs), n)
		}
		if len(c.ExtInputs) > inputs {
			t.Fatalf("cluster %d needs %d inputs (max %d)", c.ID, len(c.ExtInputs), inputs)
		}
	}
}

func TestExtInputsAreExternal(t *testing.T) {
	nl := testNetlist(t, "sha", 1.0/64)
	res, err := Pack(nl, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		for _, in := range c.ExtInputs {
			if res.ClusterOf[in] == c.ID {
				t.Fatalf("cluster %d lists its own net %d as external", c.ID, in)
			}
		}
	}
}

func TestLUTFFPairing(t *testing.T) {
	// A LUT feeding exactly one FF should fuse into one BLE.
	n := netlist.New("pair")
	a := n.Add(netlist.Input, "a", nil, 0)
	l := n.Add(netlist.LUT, "l", []int{a}, 0b10)
	f := n.Add(netlist.FF, "f", []int{l}, 0)
	n.Add(netlist.Output, "o", []int{f}, 0)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	res, err := Pack(n, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || len(res.Clusters[0].BLEs) != 1 {
		t.Fatalf("expected one fused BLE, got %+v", res.Clusters)
	}
	ble := res.Clusters[0].BLEs[0]
	if ble.LUT != l || ble.FF != f {
		t.Fatalf("BLE not fused: %+v", ble)
	}
}

func TestMacrosAndPadsListed(t *testing.T) {
	nl := testNetlist(t, "mkPktMerge", 1.0/8)
	res, err := Pack(nl, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	st := nl.Stats()
	if len(res.BRAMs) != st.BRAMs || len(res.DSPs) != st.DSPs {
		t.Fatalf("macro lists wrong: %d/%d vs %+v", len(res.BRAMs), len(res.DSPs), st)
	}
	if len(res.Inputs) != st.Inputs || len(res.Outputs) != st.Outputs {
		t.Fatalf("pad lists wrong")
	}
}

func TestPackQualityReasonable(t *testing.T) {
	nl := testNetlist(t, "sha", 1.0/16)
	res, err := Pack(nl, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	bles := 0
	for _, c := range res.Clusters {
		bles += len(c.BLEs)
		if len(c.ExtInputs) > 40 {
			t.Fatalf("input bound violated: %d", len(c.ExtInputs))
		}
	}
	if fill := float64(bles) / float64(len(res.Clusters)) / 10; fill < 0.5 {
		t.Fatalf("clusters badly underfilled: avg fill %.2f", fill)
	}
}

func TestPackRejectsBadArguments(t *testing.T) {
	nl := testNetlist(t, "sha", 1.0/64)
	if _, err := Pack(nl, 0, 40); err == nil {
		t.Fatal("expected error for N=0")
	}
	unfrozen := netlist.New("x")
	unfrozen.Add(netlist.Input, "a", nil, 0)
	if _, err := Pack(unfrozen, 10, 40); err == nil {
		t.Fatal("expected error for unfrozen netlist")
	}
}
