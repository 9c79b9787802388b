package pack

import (
	"reflect"
	"sort"
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/netlist"
)

// packRef is the map-based packer Pack must reproduce; it lists ExtInputs
// in map order, so the comparison sorts them first.
func packRef(nl *netlist.Netlist, n, maxInputs int) *Result {
	res := &Result{Netlist: nl, ClusterOf: make([]int, len(nl.Blocks))}
	for i := range res.ClusterOf {
		res.ClusterOf[i] = -1
	}
	ffOfLUT := map[int]int{}
	usedFF := map[int]bool{}
	for i := range nl.Blocks {
		b := &nl.Blocks[i]
		if b.Type != netlist.FF {
			continue
		}
		d := b.Inputs[0]
		if nl.Blocks[d].Type == netlist.LUT {
			if _, taken := ffOfLUT[d]; !taken {
				ffOfLUT[d] = i
				usedFF[i] = true
			}
		}
	}
	var bles []BLE
	for i := range nl.Blocks {
		switch nl.Blocks[i].Type {
		case netlist.LUT:
			ff := -1
			if f, ok := ffOfLUT[i]; ok {
				ff = f
			}
			bles = append(bles, BLE{LUT: i, FF: ff})
		case netlist.FF:
			if !usedFF[i] {
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
	placed := make([]bool, len(bles))
	netUsers := map[int][]int{}
	bleInputs := func(e BLE) []int {
		var ins []int
		if e.LUT >= 0 {
			ins = append(ins, nl.Blocks[e.LUT].Inputs...)
		}
		if e.FF >= 0 && e.LUT < 0 {
			ins = append(ins, nl.Blocks[e.FF].Inputs...)
		}
		return ins
	}
	for bi, e := range bles {
		for _, in := range bleInputs(e) {
			netUsers[in] = append(netUsers[in], bi)
		}
	}
	for seed := 0; seed < len(bles); seed++ {
		if placed[seed] {
			continue
		}
		cl := Cluster{ID: len(res.Clusters)}
		inside := map[int]bool{}
		ext := map[int]bool{}
		add := func(bi int) {
			e := bles[bi]
			placed[bi] = true
			cl.BLEs = append(cl.BLEs, e)
			for _, id := range []int{e.LUT, e.FF} {
				if id >= 0 {
					inside[id] = true
					res.ClusterOf[id] = cl.ID
				}
			}
			for _, in := range bleInputs(e) {
				if !inside[in] {
					ext[in] = true
				}
			}
			for _, id := range []int{e.LUT, e.FF} {
				if id >= 0 {
					delete(ext, id)
				}
			}
		}
		add(seed)
		for len(cl.BLEs) < n {
			best, bestScore := -1, -1
			cands := map[int]int{}
			for net := range ext {
				for _, bi := range netUsers[net] {
					if !placed[bi] {
						cands[bi]++
					}
				}
			}
			for net := range inside {
				for _, bi := range netUsers[net] {
					if !placed[bi] {
						cands[bi] += 2
					}
				}
			}
			extra := func(bi int) int {
				x := 0
				for _, in := range bleInputs(bles[bi]) {
					if !inside[in] && !ext[in] {
						x++
					}
				}
				return x
			}
			for bi, score := range cands {
				if len(ext)+extra(bi) > maxInputs {
					continue
				}
				if score > bestScore || (score == bestScore && bi < best) {
					best, bestScore = bi, score
				}
			}
			if best < 0 {
				for bi := seed + 1; bi < len(bles); bi++ {
					if placed[bi] {
						continue
					}
					if len(ext)+extra(bi) <= maxInputs {
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
		for net := range ext {
			cl.ExtInputs = append(cl.ExtInputs, net)
		}
		sort.Ints(cl.ExtInputs)
		res.Clusters = append(res.Clusters, cl)
	}
	return res
}

// TestPackMatchesReference requires Pack's result to equal the map-based
// packer's on every benchmark profile, for the default shape and for two
// tighter ones whose input budget binds.
func TestPackMatchesReference(t *testing.T) {
	type shape struct{ n, inputs int }
	for _, c := range []struct {
		scale  float64
		shapes []shape
	}{
		{1.0 / 64, []shape{{10, 40}, {4, 10}, {10, 22}}},
		{1.0 / 16, []shape{{10, 40}}},
	} {
		for _, p := range bench.VTR {
			nl := testNetlist(t, p.Name, c.scale)
			for _, s := range c.shapes {
				got, err := Pack(nl, s.n, s.inputs)
				if err != nil {
					t.Fatal(err)
				}
				if want := packRef(nl, s.n, s.inputs); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s at scale %g, shape %v: Pack differs from the reference packer", p.Name, c.scale, s)
				}
			}
		}
	}
}

// TestPackDeterministic packs one netlist twice: the results must be equal,
// ExtInputs included, and every cluster's ExtInputs ascending.
func TestPackDeterministic(t *testing.T) {
	nl := testNetlist(t, "sha", 1.0/16)
	first, err := Pack(nl, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Pack(nl, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("two packs of one netlist differ")
	}
	for _, c := range first.Clusters {
		if !sort.IntsAreSorted(c.ExtInputs) {
			t.Fatalf("cluster %d ExtInputs not ascending: %v", c.ID, c.ExtInputs)
		}
	}
}
