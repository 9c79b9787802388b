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
	// Reroutes counts the nets ripped up and rerouted after round 1.
	Reroutes int
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

// qItem is the router's 16-byte frontier entry. The classic
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
	// consumes it smallest-first.
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
// round iter. The search is the PathFinder inner loop: pooled
// epoch-stamped wavefront state, precompiled OPIN seeds, precomputed node
// coordinates, and the settled-neighbor skip (dist ≤ d+1 is safe because
// every node costs at least 1). None of it changes a heap comparison, so
// the pop order among equal costs, which picks the tree, is container/heap's.
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

	// Targets ascend: the smallest remaining tile is routed next.
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
			// float64 either way, so this matches math.Abs on floats bit
			// for bit.
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
			// Re-seed the existing tree's wires in ascending order.
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

// negotiation is the PathFinder state carried across rounds: the nets, the
// per-node congestion records with their cached costs, and each net's
// current route tree.
type negotiation struct {
	opts  *Options
	tasks []netTask
	nodes []nodeState
	// prevUse[ti] is net ti's current tree node list: ripped up before a
	// reroute, and the final tree for traceback.
	prevUse [][]int32
	// finalPars[ti][i] is the tree parent of prevUse[ti][i] (-1 roots;
	// never -2, existing-tree hits stop the commit walk before storing).
	finalPars [][]int32
	// routedIn[ti] is the round that routed net ti's current tree.
	routedIn []int
	// reroutes counts the nets routed after round 1.
	reroutes int
	presFac  float64
	// cost caches nodeCost per node, maintained incrementally: occupancy
	// only changes at rip-up/commit and hist/presFac only between rounds,
	// so the hot expansion loop reads one float64 instead of re-deriving
	// the congestion term.
	cost []float64
	live *netSearcher
}

func newNegotiation(pl *place.Placement, g *Graph, opts *Options) *negotiation {
	tasks := buildNetTasks(pl)
	neg := &negotiation{
		opts:      opts,
		tasks:     tasks,
		nodes:     make([]nodeState, g.numNodes),
		prevUse:   make([][]int32, len(tasks)),
		finalPars: make([][]int32, len(tasks)),
		routedIn:  make([]int, len(tasks)),
		presFac:   opts.PresFacFirst,
		cost:      make([]float64, g.numNodes),
	}
	for n := range neg.nodes {
		neg.nodes[n].cap = g.capacity[n]
	}
	neg.recostAll()
	neg.live = newNetSearcher(g, neg.cost)
	return neg
}

func (neg *negotiation) recost(n int32) {
	s := &neg.nodes[n]
	c := 1.0 + s.hist
	over := float64(s.occ + 1 - s.cap)
	if over > 0 {
		c += over * neg.presFac * 4
	}
	neg.cost[n] = c
}

func (neg *negotiation) recostAll() {
	for n := int32(0); n < int32(len(neg.nodes)); n++ {
		neg.recost(n)
	}
}

// overused reports whether any node of net ti's current tree holds more
// nets than its capacity.
func (neg *negotiation) overused(ti int) bool {
	for _, n := range neg.prevUse[ti] {
		if neg.nodes[n].occ > neg.nodes[n].cap {
			return true
		}
	}
	return false
}

// round runs negotiation round iter over the nets in driver order. Round 1
// routes every net; later rounds rip up and reroute only a net whose tree
// holds an overused node when its turn comes, and leave every other tree
// as it is.
func (neg *negotiation) round(iter int) error {
	for ti := range neg.tasks {
		if iter > 1 {
			if !neg.overused(ti) {
				continue
			}
			neg.reroutes++
		}
		for _, n := range neg.prevUse[ti] {
			neg.nodes[n].occ--
			neg.recost(n)
		}
		neg.prevUse[ti] = neg.prevUse[ti][:0]
		neg.finalPars[ti] = neg.finalPars[ti][:0]

		if err := neg.live.routeNet(&neg.tasks[ti], iter, neg.opts); err != nil {
			return err
		}
		for _, n := range neg.live.treeList {
			neg.prevUse[ti] = append(neg.prevUse[ti], n)
			neg.finalPars[ti] = append(neg.finalPars[ti], neg.live.treePar[n])
			neg.nodes[n].occ++
			neg.recost(n)
		}
		neg.routedIn[ti] = iter
	}
	return nil
}

// congested reports whether any node holds more nets than its capacity.
func (neg *negotiation) congested() bool {
	for n := range neg.nodes {
		if neg.nodes[n].occ > neg.nodes[n].cap {
			return true
		}
	}
	return false
}

// penalize adds each overused node's excess to its history, raises the
// present-congestion factor, and refreshes every cached node cost.
func (neg *negotiation) penalize() {
	for n := range neg.nodes {
		if over := int(neg.nodes[n].occ) - int(neg.nodes[n].cap); over > 0 {
			neg.nodes[n].hist += float64(over)
		}
	}
	neg.presFac *= neg.opts.PresFacMult
	neg.recostAll()
}

// Route routes every multi-terminal net of the placed design.
//
// This is a serial, incremental PathFinder over pooled epoch-stamped search
// state. Round 1 routes every net in driver order. From round 2 on, a net
// is ripped up and rerouted only if its tree holds an overused node when
// its turn comes; every other net keeps its tree. History grows on the
// nodes still overused at the end of a round, and negotiation stops at the
// first round that ends without one.
func Route(pl *place.Placement, g *Graph, opts Options) (*Result, error) {
	neg := newNegotiation(pl, g, &opts)
	res := &Result{Graph: g, Place: pl, Nets: map[int]*NetRoute{}}
	for iter := 1; iter <= opts.MaxIters; iter++ {
		res.Iters = iter
		if err := neg.round(iter); err != nil {
			return nil, err
		}
		if !neg.congested() {
			break
		}
		neg.penalize()
	}
	res.Reroutes = neg.reroutes

	// Final congestion check.
	for n, s := range neg.nodes {
		if int(s.occ) > res.MaxOcc {
			res.MaxOcc = int(s.occ)
		}
		if s.occ > s.cap {
			return nil, fmt.Errorf("route: unresolved congestion after %d iterations (node %d occ %d cap %d)",
				res.Iters, n, s.occ, s.cap)
		}
	}

	tasks, prevUse, finalPars, live := neg.tasks, neg.prevUse, neg.finalPars, neg.live
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
