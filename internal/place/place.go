// Package place implements VPR-style simulated-annealing placement of the
// packed design onto the architecture grid: logic clusters onto logic
// tiles, BRAM/DSP macros onto their column tiles, and IO pads onto the ring
// (several pads share one IO tile). The cost is criticality-weighted
// half-perimeter wirelength, annealed with an adaptive range limit — the
// timing-driven placement the paper's flow relies on for realistic critical
// paths.
//
// Place is the optimized annealer: flat slice-backed occupancy and site
// tables, a dense per-entity coordinate table, a touched-net list merged from
// two ascending per-entity net lists, and one branch-free span kernel that
// reprices every touched net's weight × HPWL from the coordinate table. It
// consumes the exact RNG stream of the seed annealer and reproduces its
// accept/reject decisions, so TileOf and Cost are byte-identical to the seed
// annealer PlaceReference, which lives in the package's tests
// (reference_test.go) next to the equivalence tests.
package place

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"tafpga/internal/arch"
	"tafpga/internal/coffe"
	"tafpga/internal/netlist"
	"tafpga/internal/pack"
	"tafpga/internal/thermalest"
)

// ioPadsPerTile is the pad capacity of one IO ring tile.
const ioPadsPerTile = 8

// numTileClasses sizes the per-class site tables (TileLogic..TileEmpty).
const numTileClasses = int(coffe.TileEmpty) + 1

// Placement is the placed design.
type Placement struct {
	Grid   *arch.Grid
	Packed *pack.Result
	// TileOf maps every netlist block ID to the flat tile index holding it.
	TileOf []int
	// Cost is the final annealing cost (criticality-weighted HPWL in tile
	// units), for reporting and regression tests.
	Cost float64
}

// entity is one placeable object: a cluster, a macro block, or an IO pad.
type entity struct {
	class coffe.TileClass
	// cluster index when class == TileLogic and cluster >= 0; otherwise a
	// netlist block ID (macros, pads).
	cluster int
	block   int
	tile    int
	slot    int // IO pads: slot within the tile
}

// gridSites is the per-grid site enumeration: the legal tile list of every
// class, in tile-index order (the order the seed annealer produced). It is
// built once per grid and cached, so repeated Place calls on one grid (the
// ablation sweeps, the reference/optimized equivalence harness) skip the
// full-grid classification scan.
type gridSites struct {
	byClass [numTileClasses][]int
}

var siteCache = struct {
	sync.Mutex
	m map[*arch.Grid]*gridSites
}{m: map[*arch.Grid]*gridSites{}}

// sitesFor returns the cached site enumeration of a grid, building it on
// first use. The cache is bounded: it resets wholesale rather than growing
// past a few dozen grids, since each entry is only a few kilobytes and
// long-running sweeps reuse a handful of grid shapes.
func sitesFor(grid *arch.Grid) *gridSites {
	siteCache.Lock()
	defer siteCache.Unlock()
	if s, ok := siteCache.m[grid]; ok {
		return s
	}
	if len(siteCache.m) >= 64 {
		siteCache.m = map[*arch.Grid]*gridSites{}
	}
	s := &gridSites{}
	for idx := 0; idx < grid.NumTiles(); idx++ {
		c := grid.ClassAt(idx)
		s.byClass[c] = append(s.byClass[c], idx)
	}
	siteCache.m[grid] = s
	return s
}

// point is one tile's grid coordinates.
type point struct{ x, y int32 }

// annealer bundles the flat working state of one Place call.
type annealer struct {
	ents  []entity
	sites *gridSites
	// occupant[tile*ioPadsPerTile+slot] is the entity index or -1.
	occupant []int32
	// tileXY decomposes flat tile indices once; pos[ei] is tileXY of
	// ents[ei].tile, kept in step with every applied or reverted move so
	// netSpanCost reads one record per endpoint.
	tileXY []point
	pos    []point

	// Nets in CSR form: net ni owns endpoints
	// endsList[endsStart[ni]:endsStart[ni+1]].
	endsStart []int32
	endsList  []int32
	weight    []float64
	netCost   []float64
	// netsAt in CSR form: entity ei touches nets
	// netsAtList[netsAtStart[ei]:netsAtStart[ei+1]], in strictly ascending
	// net order (the list is filled net by net), which tryMove's merge
	// relies on.
	netsAtStart []int32
	netsAtList  []int32

	// Per-move scratch, reused across every move.
	touched  []int32
	newCosts []float64

	total float64

	// Thermal-aware extension (nil/zero on the baseline path): est is the
	// incremental rise estimator, entPowerUW the per-entity power proxy,
	// thermW the configured weight pre-multiplied by the wirelength/
	// objective normalization, and thermMoves the accepted-transfer count
	// that paces the periodic drift re-normalization.
	est        *thermalest.Estimate
	entPowerUW []float64
	thermW     float64
	thermMoves int
}

// Place anneals the packed design. effort scales the move budget (1.0 is
// the default VPR-like schedule); seed fixes the random stream. The result
// is byte-identical to the seed annealer (PlaceReference in the tests) for
// the same inputs.
func Place(p *pack.Result, grid *arch.Grid, seed int64, effort float64) (*Placement, error) {
	return placeAnneal(p, grid, seed, effort, nil)
}

// ThermalCost configures thermal-aware placement: the annealing cost gains
// a Weight-scaled thermal term priced by the truncated influence kernel,
// so hot blocks spread apart instead of clustering.
type ThermalCost struct {
	// Weight scales the thermal objective relative to the wirelength cost
	// (both are normalized to the initial placement, so 1.0 weighs them
	// equally). Weight <= 0 disables the term entirely.
	Weight float64
	// Kernel is the truncated influence kernel of the target grid's
	// thermal model (thermalest.KernelFor).
	Kernel *thermalest.Kernel
	// BlockPowerUW[b] is the power proxy of netlist block b
	// (thermalest.BlockPowerUW).
	BlockPowerUW []float64
}

// PlaceThermal anneals with a thermal term in the cost. With Weight <= 0
// or a nil kernel it delegates to Place and is byte-identical to it; with
// a positive weight the accept/reject decisions (and hence TileOf) differ,
// and Cost reports the combined wirelength + weighted-thermal objective.
func PlaceThermal(p *pack.Result, grid *arch.Grid, seed int64, effort float64, tc ThermalCost) (*Placement, error) {
	if tc.Weight <= 0 || tc.Kernel == nil {
		return Place(p, grid, seed, effort)
	}
	return placeAnneal(p, grid, seed, effort, &tc)
}

// placeAnneal is the shared annealer body. tc == nil is the baseline path
// Place exposes; every thermal extension is gated behind it so the
// baseline consumes the identical RNG stream and produces the identical
// bytes.
func placeAnneal(p *pack.Result, grid *arch.Grid, seed int64, effort float64, tc *ThermalCost) (*Placement, error) {
	if effort <= 0 {
		effort = 1.0
	}
	a, entOf, err := newAnnealer(p, grid, tc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	numNets := len(a.weight)

	// Annealing schedule (VPR-like), identical to the seed.
	movesPerT := int(effort * 8 * math.Pow(float64(len(a.ents)), 1.2))
	if movesPerT < 200 {
		movesPerT = 200
	}
	temp := initialTemp(numNets, a.total)

	for temp > 0.001*a.total/float64(numNets+1) {
		accepted := 0
		for m := 0; m < movesPerT; m++ {
			if a.tryMove(rng, temp) {
				accepted++
			}
		}
		frac := float64(accepted) / float64(movesPerT)
		// VPR's adaptive cooling: cool slowly near 44 % acceptance.
		switch {
		case frac > 0.96:
			temp *= 0.5
		case frac > 0.8:
			temp *= 0.9
		case frac > 0.15:
			temp *= 0.95
		default:
			temp *= 0.8
		}
		if frac < 0.02 && temp < 0.01*a.total/float64(numNets+1) {
			break
		}
	}

	pl := &Placement{Grid: grid, Packed: p, TileOf: make([]int, len(entOf)), Cost: a.total}
	for i := range pl.TileOf {
		pl.TileOf[i] = -1
		if entOf[i] >= 0 {
			pl.TileOf[i] = a.ents[entOf[i]].tile
		}
	}
	return pl, nil
}

// newAnnealer enumerates the entities, makes the seed's deterministic
// initial placement, and builds the net, coordinate, cost and
// (with tc) thermal state the anneal works on. It draws no random numbers.
// entOf maps every netlist block to its entity, or -1.
func newAnnealer(p *pack.Result, grid *arch.Grid, tc *ThermalCost) (*annealer, []int, error) {
	nl := p.Netlist

	// Enumerate entities (same order as the seed annealer).
	var ents []entity
	for ci := range p.Clusters {
		ents = append(ents, entity{class: coffe.TileLogic, cluster: ci, block: -1})
	}
	for _, b := range p.BRAMs {
		ents = append(ents, entity{class: coffe.TileBRAM, cluster: -1, block: b})
	}
	for _, b := range p.DSPs {
		ents = append(ents, entity{class: coffe.TileDSP, cluster: -1, block: b})
	}
	for _, b := range append(append([]int{}, p.Inputs...), p.Outputs...) {
		ents = append(ents, entity{class: coffe.TileIO, cluster: -1, block: b})
	}

	sites := sitesFor(grid)
	for _, cls := range []coffe.TileClass{coffe.TileLogic, coffe.TileBRAM, coffe.TileDSP} {
		need := 0
		for _, e := range ents {
			if e.class == cls {
				need++
			}
		}
		if need > len(sites.byClass[cls]) {
			return nil, nil, fmt.Errorf("place: %d %s blocks exceed %d sites", need, cls, len(sites.byClass[cls]))
		}
	}
	{
		needIO := 0
		for _, e := range ents {
			if e.class == coffe.TileIO {
				needIO++
			}
		}
		if needIO > len(sites.byClass[coffe.TileIO])*ioPadsPerTile {
			return nil, nil, fmt.Errorf("place: %d pads exceed IO capacity %d", needIO, len(sites.byClass[coffe.TileIO])*ioPadsPerTile)
		}
	}

	// Initial placement: round-robin over sites (deterministic, identical
	// to the seed's map-backed walk).
	occupant := make([]int32, grid.NumTiles()*ioPadsPerTile)
	for i := range occupant {
		occupant[i] = -1
	}
	var counters [numTileClasses]int
	for ei := range ents {
		e := &ents[ei]
		s := sites.byClass[e.class]
		for {
			k := counters[e.class]
			counters[e.class]++
			tile := s[k%len(s)]
			slot := 0
			if e.class == coffe.TileIO {
				slot = k / len(s)
				if slot >= ioPadsPerTile {
					return nil, nil, fmt.Errorf("place: IO overflow")
				}
			} else if k >= len(s) {
				return nil, nil, fmt.Errorf("place: %s overflow", e.class)
			}
			if occupant[tile*ioPadsPerTile+slot] < 0 {
				e.tile, e.slot = tile, slot
				occupant[tile*ioPadsPerTile+slot] = int32(ei)
				break
			}
		}
	}

	// Map each netlist block to its entity.
	entOf := make([]int, len(nl.Blocks))
	for i := range entOf {
		entOf[i] = -1
	}
	for ei, e := range ents {
		if e.cluster >= 0 {
			for _, ble := range p.Clusters[e.cluster].BLEs {
				if ble.LUT >= 0 {
					entOf[ble.LUT] = ei
				}
				if ble.FF >= 0 {
					entOf[ble.FF] = ei
				}
			}
		} else {
			entOf[e.block] = ei
		}
	}

	// Nets for the cost function: driver + sinks as entity endpoints,
	// skipping cluster-internal nets. Endpoint order matches the seed
	// (driver first, sinks in netlist order, first occurrence kept).
	crit := netCriticality(nl)
	a := &annealer{ents: ents, sites: sites, occupant: occupant}
	a.endsStart = append(a.endsStart, 0)
	seenStamp := make([]int32, len(ents))
	for i := range seenStamp {
		seenStamp[i] = -1
	}
	netsAtCount := make([]int32, len(ents))
	for d := range nl.Blocks {
		if len(nl.Sinks[d]) == 0 || entOf[d] < 0 {
			continue
		}
		mark := int32(d)
		lo := len(a.endsList)
		a.endsList = append(a.endsList, int32(entOf[d]))
		seenStamp[entOf[d]] = mark
		for _, s := range nl.Sinks[d] {
			if e := entOf[s]; e >= 0 && seenStamp[e] != mark {
				a.endsList = append(a.endsList, int32(e))
				seenStamp[e] = mark
			}
		}
		if len(a.endsList)-lo < 2 {
			a.endsList = a.endsList[:lo]
			continue
		}
		a.weight = append(a.weight, (1+float64(3*crit[d]))*qFactor(len(nl.Sinks[d])))
		a.endsStart = append(a.endsStart, int32(len(a.endsList)))
		for _, e := range a.endsList[lo:] {
			netsAtCount[e]++
		}
	}
	numNets := len(a.weight)

	// Flatten the entity→net index.
	a.netsAtStart = make([]int32, len(ents)+1)
	for ei := range ents {
		a.netsAtStart[ei+1] = a.netsAtStart[ei] + netsAtCount[ei]
	}
	a.netsAtList = make([]int32, a.netsAtStart[len(ents)])
	fill := make([]int32, len(ents))
	copy(fill, a.netsAtStart[:len(ents)])
	for ni := 0; ni < numNets; ni++ {
		for _, e := range a.endsList[a.endsStart[ni]:a.endsStart[ni+1]] {
			a.netsAtList[fill[e]] = int32(ni)
			fill[e]++
		}
	}

	// Coordinate tables.
	a.tileXY = make([]point, grid.NumTiles())
	for idx := range a.tileXY {
		x, y := grid.At(idx)
		a.tileXY[idx] = point{int32(x), int32(y)}
	}
	a.pos = make([]point, len(ents))
	for ei := range ents {
		a.pos[ei] = a.tileXY[ents[ei].tile]
	}

	// Initial costs (same accumulation order as the seed: net by net, in
	// net-index order).
	a.netCost = make([]float64, numNets)
	for ni := range a.netCost {
		a.netCost[ni] = a.netSpanCost(int32(ni))
		a.total += a.netCost[ni]
	}

	// Thermal-aware extension: aggregate the block-power proxy per entity,
	// deposit it on the initial tiles, and normalize the weight so the
	// thermal objective enters the cost in wirelength units.
	if tc != nil {
		if tc.Kernel.W != grid.W || tc.Kernel.H != grid.H {
			return nil, nil, fmt.Errorf("place: thermal kernel %dx%d != grid %dx%d",
				tc.Kernel.W, tc.Kernel.H, grid.W, grid.H)
		}
		if len(tc.BlockPowerUW) != len(nl.Blocks) {
			return nil, nil, fmt.Errorf("place: block power length %d != %d blocks",
				len(tc.BlockPowerUW), len(nl.Blocks))
		}
		a.entPowerUW = make([]float64, len(ents))
		for ei := range ents {
			e := &ents[ei]
			if e.cluster >= 0 {
				for _, ble := range p.Clusters[e.cluster].BLEs {
					if ble.LUT >= 0 {
						a.entPowerUW[ei] += tc.BlockPowerUW[ble.LUT]
					}
					if ble.FF >= 0 {
						a.entPowerUW[ei] += tc.BlockPowerUW[ble.FF]
					}
				}
			} else {
				a.entPowerUW[ei] = tc.BlockPowerUW[e.block]
			}
		}
		tilePow := make([]float64, grid.NumTiles())
		for ei := range ents {
			tilePow[ents[ei].tile] += a.entPowerUW[ei]
		}
		est, err := thermalest.New(tc.Kernel, tilePow)
		if err != nil {
			return nil, nil, err
		}
		if obj := est.Objective(); obj > 0 && a.total > 0 {
			a.est = est
			a.thermW = tc.Weight * a.total / obj
		}
		// A powerless or netless design has nothing thermal to trade off;
		// est stays nil and the anneal runs the baseline arithmetic.
	}

	return a, entOf, nil
}

// netSpanCost prices net ni from the current entity positions: the seed's
// weight × integer-HPWL product, recomputed over every endpoint with the
// min/max builtins so the loop has no data-dependent branches. The span is
// integral, so the float64 conversion is exact and the value is bit-identical
// to the seed's full recompute; the outer conversion keeps a caller's
// running sum from fusing with the product.
func (a *annealer) netSpanCost(ni int32) float64 {
	ends := a.endsList[a.endsStart[ni]:a.endsStart[ni+1]]
	p := a.pos[ends[0]]
	minX, maxX, minY, maxY := p.x, p.x, p.y, p.y
	for _, ei := range ends[1:] {
		q := a.pos[ei]
		minX, maxX = min(minX, q.x), max(maxX, q.x)
		minY, maxY = min(minY, q.y), max(maxY, q.y)
	}
	return float64(a.weight[ni] * float64((maxX-minX)+(maxY-minY)))
}

// tryMove proposes one swap/move and applies it with Metropolis acceptance.
// It consumes the RNG in the exact pattern of the seed's refTryMove
// (Intn, Intn, [Intn for IO], and Float64 only for uphill moves) and
// computes the identical delta, so every accept/reject decision matches.
func (a *annealer) tryMove(rng *rand.Rand, temp float64) bool {
	ents := a.ents
	ei := rng.Intn(len(ents))
	e := &ents[ei]
	cls := e.class
	s := a.sites.byClass[cls]
	target := s[rng.Intn(len(s))]
	slot := 0
	if cls == coffe.TileIO {
		slot = rng.Intn(ioPadsPerTile)
	}
	if target == e.tile && slot == e.slot {
		return false
	}

	oiRaw := a.occupant[target*ioPadsPerTile+slot]
	hasOcc := oiRaw >= 0
	oi := int(oiRaw)

	// Collect the affected nets in ascending order, so the summation order
	// matches the seed exactly.
	var displaced []int32
	if hasOcc {
		displaced = a.netsAtList[a.netsAtStart[oi]:a.netsAtStart[oi+1]]
	}
	a.touched = mergeTouched(a.touched[:0], a.netsAtList[a.netsAtStart[ei]:a.netsAtStart[ei+1]], displaced)

	// Apply tentatively.
	oldTile, oldSlot := e.tile, e.slot
	p0, p1 := a.tileXY[oldTile], a.tileXY[target]
	a.occupant[oldTile*ioPadsPerTile+oldSlot] = -1
	if hasOcc {
		o := &ents[oi]
		o.tile, o.slot = oldTile, oldSlot
		a.pos[oi] = p0
		a.occupant[oldTile*ioPadsPerTile+oldSlot] = int32(oi)
	}
	e.tile, e.slot = target, slot
	a.pos[ei] = p1
	a.occupant[target*ioPadsPerTile+slot] = int32(ei)

	// Reprice every touched net from the new positions, as the seed did.
	// Both sums run in the same ascending order as the seed's, so they and
	// their difference are bit-identical.
	a.newCosts = a.newCosts[:0]
	oldSum, newSum := 0.0, 0.0
	for _, ni := range a.touched {
		oldSum += a.netCost[ni]
		c := a.netSpanCost(ni)
		a.newCosts = append(a.newCosts, c)
		newSum += c
	}

	delta := newSum - oldSum
	// Thermal term: a swap is a single net transfer of the power
	// difference from the moved entity's old tile to its new one, priced
	// in O(radius²) against the current rise field.
	var thermQ float64
	if a.est != nil && oldTile != target {
		thermQ = a.entPowerUW[ei]
		if hasOcc {
			thermQ -= a.entPowerUW[oi]
		}
		if thermQ != 0 {
			delta += float64(a.thermW * a.est.MoveDelta(thermQ, oldTile, target))
		}
	}
	if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
		for i, ni := range a.touched {
			a.netCost[ni] = a.newCosts[i]
		}
		a.total += delta
		if thermQ != 0 {
			// Apply repeats MoveDelta's arithmetic verbatim, so the
			// committed objective matches the priced delta bit for bit;
			// the periodic Recompute squeezes out accumulated rounding.
			a.est.Apply(thermQ, oldTile, target)
			a.thermMoves++
			if a.thermMoves&4095 == 0 {
				a.est.Recompute()
			}
		}
		return true
	}
	// Revert positions and occupancy.
	a.occupant[target*ioPadsPerTile+slot] = -1
	if hasOcc {
		o := &ents[oi]
		o.tile, o.slot = target, slot
		a.pos[oi] = p1
		a.occupant[target*ioPadsPerTile+slot] = int32(oi)
	}
	e.tile, e.slot = oldTile, oldSlot
	a.pos[ei] = p0
	a.occupant[oldTile*ioPadsPerTile+oldSlot] = int32(ei)
	return false
}

// mergeTouched appends to dst the union of two strictly ascending net lists,
// the moved entity's nets and the displaced entity's, in ascending order
// with no net twice.
func mergeTouched(dst, moved, displaced []int32) []int32 {
	i, j := 0, 0
	for i < len(moved) && j < len(displaced) {
		switch m, d := moved[i], displaced[j]; {
		case m < d:
			dst = append(dst, m)
			i++
		case m > d:
			dst = append(dst, d)
			j++
		default:
			dst = append(dst, m)
			i++
			j++
		}
	}
	dst = append(dst, moved[i:]...)
	return append(dst, displaced[j:]...)
}

// initialTemp estimates the starting temperature: T0 ≈ 20 × the average
// per-net cost, a standard proxy for the stddev of single-move deltas.
func initialTemp(numNets int, total float64) float64 {
	if numNets == 0 {
		return 1
	}
	return 20 * total / float64(numNets)
}

// qFactor is VPR's HPWL correction for multi-terminal nets.
func qFactor(fanout int) float64 {
	switch {
	case fanout <= 3:
		return 1.0
	case fanout <= 10:
		return 1.0 + float64(0.06*float64(fanout-3))
	default:
		return 1.42 + float64(0.02*float64(fanout-10))
	}
}

// netCriticality runs a unit-delay STA over the netlist and returns, per
// driving block, how close the net is to the critical path (1 = on it).
func netCriticality(nl *netlist.Netlist) []float64 {
	arrival := make([]float64, len(nl.Blocks))
	required := make([]float64, len(nl.Blocks))
	order := topoCombo(nl)
	maxArr := 0.0
	for _, id := range order {
		b := &nl.Blocks[id]
		if b.Type != netlist.LUT && b.Type != netlist.Output {
			continue
		}
		in := 0.0
		for _, s := range b.Inputs {
			if arrival[s] > in {
				in = arrival[s]
			}
		}
		arrival[id] = in + 1
		if arrival[id] > maxArr {
			maxArr = arrival[id]
		}
	}
	for i := range required {
		required[i] = maxArr
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		b := &nl.Blocks[id]
		for _, s := range b.Inputs {
			if r := required[id] - 1; r < required[s] {
				required[s] = r
			}
		}
	}
	crit := make([]float64, len(nl.Blocks))
	for i := range crit {
		if maxArr > 0 {
			slack := required[i] - arrival[i]
			c := 1 - slack/maxArr
			if c < 0 {
				c = 0
			}
			if c > 1 {
				c = 1
			}
			crit[i] = c
		}
	}
	return crit
}

func topoCombo(nl *netlist.Netlist) []int {
	indeg := make([]int, len(nl.Blocks))
	for i := range nl.Blocks {
		b := &nl.Blocks[i]
		if b.Type != netlist.LUT && b.Type != netlist.Output {
			continue
		}
		for _, in := range b.Inputs {
			if nl.Blocks[in].Type == netlist.LUT {
				indeg[i]++
			}
		}
	}
	var queue, order []int
	for i := range nl.Blocks {
		b := &nl.Blocks[i]
		if (b.Type == netlist.LUT || b.Type == netlist.Output) && indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range nl.Sinks[u] {
			t := nl.Blocks[v].Type
			if t != netlist.LUT && t != netlist.Output {
				continue
			}
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return order
}
