package activity

import (
	"math"
	"math/rand"
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/netlist"
)

// lutStatsRef is the direct enumeration lutStats must match bit for bit:
// every minterm's probability multiplied out input by input, for P1 and
// again for every input's Boolean difference.
func lutStatsRef(b *netlist.Block, act []Stats) Stats {
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
		sens := 0.0
		for m := 0; m < size; m++ {
			if b.LUTEval(m) == b.LUTEval(m^(1<<uint(i))) {
				continue
			}
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
		density += float64(act[b.Inputs[i]].Density * sens / 2)
	}
	return Stats{P1: clamp01(p1), Density: math.Min(density, 2)}
}

// estimateRef is Estimate without the skip of unchanged LUTs and with the
// reference kernel.
func estimateRef(n *netlist.Netlist, piDensity float64) []Stats {
	act := make([]Stats, len(n.Blocks))
	for i := range n.Blocks {
		switch n.Blocks[i].Type {
		case netlist.Input, netlist.FF, netlist.BRAM, netlist.DSP:
			act[i] = Stats{P1: 0.5, Density: piDensity}
		}
	}
	order := n.ComboOrder()
	for iter := 0; iter < 6; iter++ {
		maxDelta := 0.0
		for _, id := range order {
			b := &n.Blocks[id]
			var s Stats
			switch b.Type {
			case netlist.LUT:
				s = lutStatsRef(b, act)
			case netlist.Output:
				s = act[b.Inputs[0]]
			}
			d := math.Abs(s.P1-act[id].P1) + math.Abs(s.Density-act[id].Density)
			if d > maxDelta {
				maxDelta = d
			}
			act[id] = s
		}
		for i := range n.Blocks {
			b := &n.Blocks[i]
			switch b.Type {
			case netlist.FF:
				in := act[b.Inputs[0]]
				act[i] = Stats{P1: in.P1, Density: math.Min(1, 2*in.P1*(1-in.P1))}
			case netlist.BRAM:
				act[i] = Stats{P1: 0.5, Density: math.Min(1, 0.7*avgDensity(b, act))}
			case netlist.DSP:
				act[i] = Stats{P1: 0.5, Density: math.Min(1.5, 1.2*avgDensity(b, act))}
			}
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	return act
}

// randomLUT draws a LUT of k inputs over nets 0..k-1 (an input may repeat)
// with a random truth table, and input stats whose probabilities include
// the exact values 0, 0.5 and 1.
func randomLUT(rng *rand.Rand, k int) (netlist.Block, []Stats) {
	b := netlist.Block{Type: netlist.LUT, Truth: rng.Uint64()}
	act := make([]Stats, k)
	for i := range act {
		b.Inputs = append(b.Inputs, rng.Intn(k))
		p := rng.Float64()
		switch rng.Intn(5) {
		case 0:
			p = 0
		case 1:
			p = 0.5
		case 2:
			p = 1
		}
		act[i] = Stats{P1: p, Density: 2 * rng.Float64()}
	}
	return b, act
}

func TestLUTStatsMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		b, act := randomLUT(rng, 1+n%6)
		m := masksOf(&b)
		if got, want := lutStats(b.Inputs, &m, act), lutStatsRef(&b, act); !sameBits(got, want) {
			t.Fatalf("LUT %d (inputs %v, truth %#x, act %v): got %+v, want %+v", n, b.Inputs, b.Truth, act, got, want)
		}
	}
}

// FuzzLUTStats checks the prefix-table kernel against the enumeration on
// arbitrary truth tables and input stats. Run it with
//
//	go test -run '^$' -fuzz FuzzLUTStats -fuzztime 20s ./internal/activity/
func FuzzLUTStats(f *testing.F) {
	f.Add(uint8(2), uint64(0b1000), 0.5, 0.5, 0.4, 0.4, uint8(0))
	f.Add(uint8(6), uint64(0x6996966996696996), 0.0, 1.0, 1.0, 0.3, uint8(9))
	f.Add(uint8(3), uint64(0xffffffffffffff00), 0.25, 1e-300, 2.0, 0.0, uint8(36))
	f.Fuzz(func(t *testing.T, k uint8, truth uint64, pa, pb, da, db float64, wiring uint8) {
		k = 1 + k%6
		b := netlist.Block{Type: netlist.LUT, Truth: truth}
		act := []Stats{{P1: pa, Density: da}, {P1: pb, Density: db}}
		for i := 0; i < int(k); i++ {
			b.Inputs = append(b.Inputs, int(wiring>>uint(i))&1)
		}
		m := masksOf(&b)
		if got, want := lutStats(b.Inputs, &m, act), lutStatsRef(&b, act); !sameBits(got, want) {
			t.Fatalf("k=%d truth %#x act %v inputs %v: got %+v, want %+v", k, truth, act, b.Inputs, got, want)
		}
	})
}

// TestEstimateMatchesReference runs Estimate and the reference on every
// benchmark profile, and on a register loop whose only LUT is the last one
// evaluated before each register transfer, and requires identical bits on
// every net.
func TestEstimateMatchesReference(t *testing.T) {
	loop := netlist.New("loop")
	f := loop.Add(netlist.FF, "f", nil, 0)
	inv := loop.Add(netlist.LUT, "inv", []int{f}, 0b01)
	loop.Blocks[f].Inputs = []int{inv}
	loop.Add(netlist.Output, "o", []int{f}, 0)
	if err := loop.Freeze(); err != nil {
		t.Fatal(err)
	}
	nets := map[*netlist.Netlist]float64{loop: 0.1}
	for _, p := range bench.VTR {
		nl, err := bench.Generate(p.Scaled(1.0/64), bench.SeedFor(p.Name))
		if err != nil {
			t.Fatal(err)
		}
		nets[nl] = p.PIDensity
	}
	for nl, piDensity := range nets {
		got, want := Estimate(nl, piDensity), estimateRef(nl, piDensity)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s block %d: got %+v, want %+v", nl.Name, i, got[i], want[i])
			}
		}
	}
}
