package power

// walk_ref_test.go preserves the seed routed-net walk of buildDynamic and
// Report, which deduplicated each net's hops with a fresh map per net. The
// shared stamp-array walk must hand its callers the same hops in the same
// order, so every float sum over it — the dynamic vector and the routing
// bucket — keeps its bits. It is test code only.

import (
	"reflect"
	"testing"

	"tafpga/internal/route"
)

// walkNetsReference is the seed walk: nets in ascending driver order, each
// net's sinks in ascending order, a hop already seen on the net skipped.
func (m *Model) walkNetsReference(visit func(driver int, hops []route.Hop)) {
	for _, d := range sortedNetKeys(m.RT.Nets) {
		nr := m.RT.Nets[d]
		seen := map[route.Hop]bool{}
		var hops []route.Hop
		for _, s := range sortedPathKeys(nil, nr.Paths) {
			for _, h := range nr.Paths[s] {
				if seen[h] {
					continue
				}
				seen[h] = true
				hops = append(hops, h)
			}
		}
		visit(d, hops)
	}
}

type netHops struct {
	driver int
	hops   []route.Hop
}

func collectWalk(walk func(func(int, []route.Hop))) []netHops {
	var out []netHops
	walk(func(d int, hops []route.Hop) {
		out = append(out, netHops{d, append([]route.Hop(nil), hops...)})
	})
	return out
}

// TestWalkNetsMatchesReference: same nets, same distinct hops, same order.
func TestWalkNetsMatchesReference(t *testing.T) {
	m := testModel(t)
	got, want := collectWalk(m.walkNets), collectWalk(m.walkNetsReference)
	if len(got) == 0 {
		t.Fatal("no routed nets walked")
	}
	shared := false
	for _, nh := range want {
		n := 0
		for _, p := range m.RT.Nets[nh.driver].Paths {
			n += len(p)
		}
		shared = shared || n > len(nh.hops)
	}
	if !shared {
		t.Fatal("fixture has no net whose paths share a hop; the dedupe is untested")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("walkNets visits differ from the seed walk")
	}
}
