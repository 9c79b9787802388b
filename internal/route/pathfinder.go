package route

import (
	"fmt"
	"slices"
	"sort"

	"tafpga/internal/coffe"
	"tafpga/internal/place"
)

// Hop is one routing element on a source→sink path, annotated with the tile
// whose temperature governs its delay.
type Hop struct {
	// Tile is the flat tile index of the multiplexer driving this element.
	Tile int
	// Kind is the resource class (SBMux for wire hops, CBMux for the final
	// connection-block entry).
	Kind coffe.ResourceKind
}

// NetRoute is the routed tree of one net, flattened per sink.
type NetRoute struct {
	// Driver is the net's driving block ID.
	Driver int
	// Paths maps each sink block ID to its hop list, in signal order.
	Paths map[int][]Hop
	// WireLenTiles is the total wire length of the net in tile spans, for
	// wirelength reporting.
	WireLenTiles int
}

// Result is the routed design.
type Result struct {
	Graph  *Graph
	Place  *place.Placement
	Nets   map[int]*NetRoute // keyed by driver block ID
	Iters  int
	MaxOcc int
}

// Options tunes the router.
type Options struct {
	// MaxIters bounds the PathFinder negotiation rounds.
	MaxIters int
	// PresFacFirst / PresFacMult control the congestion pressure schedule.
	PresFacFirst, PresFacMult float64
	// BBoxMargin expands each net's search window beyond its terminal
	// bounding box, in tiles.
	BBoxMargin int
	// Deprecated: ignored; routing is serial (parallel speculation lost to one worker).
	Workers int
}

// DefaultOptions returns the standard negotiation schedule: a gently
// growing present-congestion factor with a strong history term, the classic
// PathFinder recipe. The gentle growth is what lets negotiation settle —
// an exploding pressure term would make every overused node look equally
// catastrophic and the routes would oscillate instead of converging, so
// the schedule deliberately avoids it.
func DefaultOptions() Options {
	return Options{MaxIters: 45, PresFacFirst: 0.5, PresFacMult: 1.3, BBoxMargin: 3}
}

type pqItem struct {
	node int32
	g    float64 // cost from source
	cost float64 // g + heuristic
}

type pq []pqItem

// The heap.Interface methods serve the retained seed router
// (RouteReference); the optimized Route uses the concrete push/pop below.
func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].cost < p[j].cost }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// qItem is the optimized router's 16-byte frontier entry. The seed item's
// g-cost stale check (`it.g > dist[n]`) is replaced by a push-sequence
// match: an entry is live iff it is the node's most recent push, which is
// exactly the entry whose g equals the node's current label (pushes only
// ever lower the label, strictly).
type qItem struct {
	cost float64 // g + heuristic
	node int32
	seq  uint32 // matches searchState.seq for the live entry
}

type frontierHeap []qItem

// push is heap.Push specialized to the concrete element type: the identical
// sift-up comparisons and swaps of container/heap without the interface
// boxing (one allocation per push) or dynamic dispatch. Because the array
// evolves exactly as under container/heap, the pop order — including ties —
// is preserved bit for bit.
func (p *frontierHeap) push(it qItem) {
	q := append(*p, it)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(q[j].cost < q[i].cost) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*p = q
}

// pop mirrors heap.Pop: swap the root with the last element, sift it down
// over the shortened heap (container/heap's exact child-selection and stop
// conditions), and return the detached element.
func (p *frontierHeap) pop() qItem {
	q := *p
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].cost < q[j].cost {
			j = j2
		}
		if !(q[j].cost < q[i].cost) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	it := q[n]
	*p = q[:n]
	return it
}

// netTask is one multi-terminal net to route, with its terminal bounding
// box precomputed.
type netTask struct {
	driver  int
	name    string
	sinks   []int
	minX    int
	minY    int
	maxX    int
	maxY    int
	srcTile int
	// sinkTiles is the deduplicated ascending target list; PathFinder
	// consumes it smallest-first, matching the seed's map-min scan.
	sinkTiles []int
}

// buildNetTasks collects the global-routing nets of the placed design in
// driver-ID order.
func buildNetTasks(pl *place.Placement) []netTask {
	nl := pl.Packed.Netlist
	grid := pl.Grid
	var tasks []netTask
	for d := range nl.Blocks {
		if len(nl.Sinks[d]) == 0 || pl.TileOf[d] < 0 {
			continue
		}
		srcTile := pl.TileOf[d]
		t := netTask{driver: d, name: nl.Blocks[d].Name, srcTile: srcTile}
		for _, s := range nl.Sinks[d] {
			st := pl.TileOf[s]
			if st < 0 || st == srcTile {
				continue // same tile: cluster-internal, no global routing
			}
			t.sinks = append(t.sinks, s)
			t.sinkTiles = append(t.sinkTiles, st)
		}
		if len(t.sinks) == 0 {
			continue
		}
		sort.Ints(t.sinkTiles)
		uniq := t.sinkTiles[:1]
		for _, st := range t.sinkTiles[1:] {
			if st != uniq[len(uniq)-1] {
				uniq = append(uniq, st)
			}
		}
		t.sinkTiles = uniq
		t.minX, t.minY = grid.W, grid.H
		update := func(tile int) {
			x, y := grid.At(tile)
			if x < t.minX {
				t.minX = x
			}
			if x > t.maxX {
				t.maxX = x
			}
			if y < t.minY {
				t.minY = y
			}
			if y > t.maxY {
				t.maxY = y
			}
		}
		update(srcTile)
		for _, st := range t.sinkTiles {
			update(st)
		}
		tasks = append(tasks, t)
	}
	return tasks
}

// nodeState is the congestion record of one RRG node: nodeCost reads hist,
// occ, and capacity together on every expansion, so keeping them on one
// cache line beats three parallel arrays.
type nodeState struct {
	hist float64
	occ  int16
	cap  int16
}

// searchState is the A* wavefront label of one node, epoch-stamped so the
// arrays are reused across nets and negotiation rounds without clearing.
// seq identifies the node's most recent frontier entry (see qItem).
type searchState struct {
	dist   float64
	stamp  int32
	parent int32
	seq    uint32
}

// netSearcher is the pooled search state of the router: the epoch-stamped
// wavefront arrays, the concrete binary heap, and the live cost vector.
type netSearcher struct {
	g        *Graph
	ss       []searchState
	inTree   []int32
	treePar  []int32
	epoch    int32
	netEpoch int32
	pushCtr  uint32
	frontier frontierHeap
	treeList []int32
	seeds    []int32

	// cost is the live per-node cost vector maintained by Route.
	cost []float64
}

func newNetSearcher(g *Graph, cost []float64) *netSearcher {
	st := &netSearcher{
		g:       g,
		ss:      make([]searchState, g.numNodes),
		inTree:  make([]int32, g.numNodes),
		treePar: make([]int32, g.numNodes),
		cost:    cost,
	}
	for i := range st.inTree {
		st.inTree[i] = -1
	}
	return st
}

// routeNet grows one net's route tree target by target at negotiation
// round iter. The search is the optimized PathFinder inner loop: pooled
// epoch-stamped wavefront state, precompiled OPIN seeds, precomputed node
// coordinates, and the settled-neighbor skip (dist ≤ d+1 is safe because
// every node costs at least 1). None of it changes a single heap
// comparison, so the chosen tree is byte-identical to what RouteReference
// commits.
func (st *netSearcher) routeNet(t *netTask, iter int, opts *Options) error {
	g := st.g
	grid := g.Grid
	segLen := float64(grid.Params.SegmentLength)

	margin := opts.BBoxMargin + (iter-1)*2
	loX, hiX := t.minX-margin, t.maxX+margin
	loY, hiY := t.minY-margin, t.maxY+margin

	// Route tree grows sink by sink; tree nodes re-seed at cost 0.
	st.netEpoch++
	st.treeList = st.treeList[:0]

	// Targets ascend, exactly the seed's smallest-remaining order.
	for tgt := 0; tgt < len(t.sinkTiles); {
		target := t.sinkTiles[tgt]
		tx, ty := grid.At(target)
		targetNode := int32(g.ipinNode(target))

		st.epoch++
		st.frontier = st.frontier[:0]
		push := func(n int32, d float64, par int32) {
			s := &st.ss[n]
			if s.stamp == st.epoch && s.dist <= d {
				return
			}
			st.pushCtr++
			s.stamp = st.epoch
			s.dist = d
			s.parent = par
			s.seq = st.pushCtr
			// |mx−tx| + |my−ty| in integers: the operands are exact in
			// float64 either way, so this matches the reference's
			// math.Abs-on-floats arithmetic bit for bit.
			v := g.xy[n]
			dx := int(v&0xffff) - tx
			if dx < 0 {
				dx = -dx
			}
			dy := int(v>>16) - ty
			if dy < 0 {
				dy = -dy
			}
			h := float64(dx+dy) / segLen * 0.8
			st.frontier.push(qItem{node: n, seq: st.pushCtr, cost: d + h})
		}

		if len(st.treeList) == 0 {
			for _, wseed := range g.opinList[g.opinStart[t.srcTile]:g.opinStart[t.srcTile+1]] {
				push(wseed, st.cost[wseed], -1)
			}
		} else {
			// Re-seed the existing tree's wires in ascending order,
			// matching the seed's sorted-map-keys walk.
			st.seeds = st.seeds[:0]
			for _, n := range st.treeList {
				if int(n) < g.numWires {
					st.seeds = append(st.seeds, n)
				}
			}
			slices.Sort(st.seeds)
			for _, n := range st.seeds {
				push(n, 0, -2) // already-owned tree node
			}
		}

		found := int32(-1)
		for len(st.frontier) > 0 {
			it := st.frontier.pop()
			n := it.node
			sn := &st.ss[n]
			if sn.seq != it.seq {
				continue // superseded by a later, cheaper push
			}
			d := sn.dist
			if n == targetNode {
				found = n
				break
			}
			// The expansion below is push() unrolled into the loop so the
			// bbox check's coordinate load and the settled-skip's label
			// load are reused instead of repeated inside a closure call.
			// Every comparison and store is the same, in the same order.
			for _, nb := range g.adjList[g.adjStart[n]:g.adjStart[n+1]] {
				if int(nb) < g.numWires {
					// Bounding-box pruning for wires.
					v := g.xy[nb]
					mx := int(v & 0xffff)
					if mx < loX || mx > hiX {
						continue
					}
					my := int(v >> 16)
					if my < loY || my > hiY {
						continue
					}
					// Settled-neighbor skip: every node costs ≥ 1, so a
					// label already at dist ≤ d+1 can never be improved
					// by this expansion — the push would be a no-op.
					sb := &st.ss[nb]
					if sb.stamp == st.epoch && sb.dist <= d+1 {
						continue
					}
					nd := d + st.cost[nb]
					if sb.stamp == st.epoch && sb.dist <= nd {
						continue
					}
					st.pushCtr++
					sb.stamp = st.epoch
					sb.dist = nd
					sb.parent = n
					sb.seq = st.pushCtr
					dx := mx - tx
					if dx < 0 {
						dx = -dx
					}
					dy := my - ty
					if dy < 0 {
						dy = -dy
					}
					h := float64(dx+dy) / segLen * 0.8
					st.frontier.push(qItem{node: nb, seq: st.pushCtr, cost: nd + h})
					continue
				}
				if int(nb)-g.numWires != target {
					continue // foreign IPIN
				}
				if sb := &st.ss[nb]; sb.stamp == st.epoch && sb.dist <= d+1 {
					continue
				}
				push(nb, d+st.cost[nb], n)
			}
		}
		if found < 0 {
			if margin < grid.W {
				// Widen the window and retry this net from scratch.
				loX, hiX, loY, hiY = 0, grid.W-1, 0, grid.H-1
				margin = grid.W
				continue
			}
			return fmt.Errorf("route: net %d (driver %q) unroutable to tile %d",
				t.driver, t.name, target)
		}

		// Commit the new branch into the tree.
		for n := found; ; {
			p := st.ss[n].parent
			if st.inTree[n] == st.netEpoch {
				break
			}
			if p == -2 {
				break // reached existing tree
			}
			st.inTree[n] = st.netEpoch
			st.treePar[n] = p
			st.treeList = append(st.treeList, n)
			if p < 0 {
				break
			}
			n = p
		}
		tgt++
	}
	return nil
}

// Route routes every multi-terminal net of the placed design.
//
// This is the optimized serial PathFinder. Each negotiation round rips up
// and re-routes every net in driver order over pooled epoch-stamped search
// state, exactly like the seed. The pooling changes no heap comparison, so
// the chosen routes — Paths, WireLenTiles, Iters, MaxOcc — are
// byte-identical to RouteReference (see reference.go and the equivalence
// tests).
func Route(pl *place.Placement, g *Graph, opts Options) (*Result, error) {
	tasks := buildNetTasks(pl)

	ng := make([]nodeState, g.numNodes)
	for n := range ng {
		ng[n].cap = g.capacity[n]
	}
	// Per-net used nodes from the previous iteration, for rip-up. The slice
	// doubles as the final route-tree node list for traceback.
	prevUse := make([][]int32, len(tasks))
	// finalPars[ti][i] is the tree parent of prevUse[ti][i] at the last
	// iteration (-1 roots; never -2, existing-tree hits stop the commit
	// walk before storing).
	finalPars := make([][]int32, len(tasks))

	res := &Result{Graph: g, Place: pl, Nets: map[int]*NetRoute{}}

	presFac := opts.PresFacFirst

	// cost caches nodeCost per node, maintained incrementally: occupancy
	// only changes at rip-up/commit and hist/presFac only between
	// iterations, so the hot expansion loop reads one float64 instead of
	// re-deriving the congestion term. recost evaluates the exact float
	// expression of the seed's nodeCost, so the cached values are
	// bit-identical to computing on demand.
	cost := make([]float64, g.numNodes)
	recost := func(n int32) {
		s := &ng[n]
		c := 1.0 + s.hist
		over := float64(s.occ + 1 - s.cap)
		if over > 0 {
			c += over * presFac * 4
		}
		cost[n] = c
	}
	for n := int32(0); n < int32(g.numNodes); n++ {
		recost(n)
	}

	live := newNetSearcher(g, cost)

	for iter := 1; iter <= opts.MaxIters; iter++ {
		res.Iters = iter
		congested := false

		for ti := range tasks {
			t := &tasks[ti]
			// Rip up previous route.
			for _, n := range prevUse[ti] {
				ng[n].occ--
				recost(n)
			}
			prevUse[ti] = prevUse[ti][:0]
			finalPars[ti] = finalPars[ti][:0]

			if err := live.routeNet(t, iter, &opts); err != nil {
				return nil, err
			}
			for _, n := range live.treeList {
				prevUse[ti] = append(prevUse[ti], n)
				finalPars[ti] = append(finalPars[ti], live.treePar[n])
			}

			// Account occupancy.
			for _, n := range prevUse[ti] {
				ng[n].occ++
				recost(n)
				if ng[n].occ > ng[n].cap {
					congested = true
				}
			}
		}

		if !congested {
			break
		}
		// Update history on overused nodes; raise pressure.
		for n := range ng {
			if over := int(ng[n].occ) - int(ng[n].cap); over > 0 {
				ng[n].hist += float64(over)
			}
		}
		presFac *= opts.PresFacMult
		// hist and presFac changed; refresh every cached node cost.
		for n := int32(0); n < int32(g.numNodes); n++ {
			recost(n)
		}
	}

	// Final congestion check.
	for n := range ng {
		if int(ng[n].occ) > res.MaxOcc {
			res.MaxOcc = int(ng[n].occ)
		}
		if ng[n].occ > ng[n].cap {
			return nil, fmt.Errorf("route: unresolved congestion after %d iterations (node %d occ %d cap %d)",
				res.Iters, n, ng[n].occ, ng[n].cap)
		}
	}

	// Traceback into per-sink hop lists. The tree's parent lookup is
	// re-stamped per net into the shared arrays (tree nodes are unique, so
	// no dedup is needed for the wirelength sum).
	var rev []int32
	for ti := range tasks {
		t := &tasks[ti]
		live.netEpoch++
		nr := &NetRoute{Driver: t.driver, Paths: map[int][]Hop{}}
		for i, n := range prevUse[ti] {
			live.inTree[n] = live.netEpoch
			live.treePar[n] = finalPars[ti][i]
			if int(n) < g.numWires {
				nr.WireLenTiles += int(g.hi[n]-g.lo[n]) + 1
			}
		}
		for _, s := range t.sinks {
			st := pl.TileOf[s]
			ip := int32(g.ipinNode(st))
			rev = rev[:0]
			for n := ip; ; {
				rev = append(rev, n)
				if live.inTree[n] != live.netEpoch || live.treePar[n] < 0 {
					break
				}
				n = live.treePar[n]
			}
			hops := make([]Hop, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				n := rev[i]
				if int(n) < g.numWires {
					var from int = -1
					if i+1 <= len(rev)-1 {
						pn := rev[i+1]
						if int(pn) < g.numWires {
							from = int(pn)
						}
					}
					hops = append(hops, Hop{Tile: g.wireEntryTile(from, t.srcTile, int(n)), Kind: coffe.SBMux})
				} else {
					hops = append(hops, Hop{Tile: int(n) - g.numWires, Kind: coffe.CBMux})
				}
			}
			nr.Paths[s] = hops
		}
		res.Nets[t.driver] = nr
	}
	return res, nil
}
