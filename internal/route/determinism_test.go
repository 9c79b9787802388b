package route

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tafpga/internal/coffe"
)

// fingerprintResult serializes a routed result deterministically (sorted
// drivers, sorted sinks) so two runs can be compared byte for byte.
func fingerprintResult(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "iters:%d maxocc:%d nets:%d\n", res.Iters, res.MaxOcc, len(res.Nets))
	drivers := make([]int, 0, len(res.Nets))
	for d := range res.Nets {
		drivers = append(drivers, d)
	}
	sort.Ints(drivers)
	for _, d := range drivers {
		nr := res.Nets[d]
		fmt.Fprintf(&sb, "net %d wl %d\n", d, nr.WireLenTiles)
		sinks := make([]int, 0, len(nr.Paths))
		for s := range nr.Paths {
			sinks = append(sinks, s)
		}
		sort.Ints(sinks)
		for _, s := range sinks {
			fmt.Fprintf(&sb, " %d:", s)
			for _, h := range nr.Paths[s] {
				kind := "sb"
				if h.Kind == coffe.CBMux {
					kind = "cb"
				}
				fmt.Fprintf(&sb, " %s@%d", kind, h.Tile)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestRouteDeterminism is the regression net under the router: routing the
// same placement must produce byte-identical output across repeated runs.
func TestRouteDeterminism(t *testing.T) {
	pl, g := routeSetup(t, "sha", 1.0/64, 1, 104)

	var want string
	for run := 0; run < 3; run++ {
		res, err := Route(pl, g, DefaultOptions())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		fp := fingerprintResult(res)
		if want == "" {
			want = fp
			continue
		}
		if fp != want {
			t.Fatalf("run %d produced a different routed result", run)
		}
	}
}
