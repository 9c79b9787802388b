// Package place implements VPR-style simulated-annealing placement of the
// packed design onto the architecture grid: logic clusters onto logic
// tiles, BRAM/DSP macros onto their column tiles, and IO pads onto the ring
// (several pads share one IO tile). The cost is criticality-weighted
// half-perimeter wirelength, annealed with an adaptive range limit — the
// timing-driven placement the paper's flow relies on for realistic critical
// paths.
//
// Place is the optimized annealer: per-net cached bounding boxes with
// boundary counts (VPR's incremental bbox cost update) priced in O(moved
// endpoints) per move instead of a full HPWL recompute of every touched
// net, flat slice-backed occupancy and site tables, and a stamp-based
// touched-net index. It consumes the exact RNG stream of the seed annealer
// and reproduces its accept/reject decisions, so TileOf and Cost are
// byte-identical to PlaceReference (see reference.go and the equivalence
// tests).
package place

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// netRec is one net in the placement cost function.
type netRec struct {
	ends   []int // entity indices (driver first)
	weight float64
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

// bbox is one net's cached bounding box with VPR-style boundary
// multiplicities: cMinX counts how many endpoints sit exactly on minX, so a
// move off the boundary knows whether the box may shrink. A count of zero
// marks the edge stale; the net is then rescanned.
type bbox struct {
	minX, maxX, minY, maxY     int32
	cMinX, cMaxX, cMinY, cMaxY int32
}

// annealer bundles the flat working state of one Place call.
type annealer struct {
	grid  *arch.Grid
	ents  []entity
	sites *gridSites
	// occupant[tile*ioPadsPerTile+slot] is the entity index or -1.
	occupant []int32
	// tileX/tileY decompose flat tile indices once.
	tileX, tileY []int32

	// Nets in CSR form: net ni owns endpoints
	// endsList[endsStart[ni]:endsStart[ni+1]].
	endsStart []int32
	endsList  []int32
	weight    []float64
	netCost   []float64
	bb        []bbox
	// netsAt in CSR form: entity ei touches nets
	// netsAtList[netsAtStart[ei]:netsAtStart[ei+1]].
	netsAtStart []int32
	netsAtList  []int32

	// Per-move scratch, reused across every move.
	touched    []int
	touchFlag  []uint8 // bit 0: net contains the moved entity; bit 1: the displaced one
	touchStamp []int32
	stamp      int32
	savedBB    []bbox
	newCosts   []float64

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
// is byte-identical to PlaceReference for the same inputs.
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
	rng := rand.New(rand.NewSource(seed))
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
			return nil, fmt.Errorf("place: %d %s blocks exceed %d sites", need, cls, len(sites.byClass[cls]))
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
			return nil, fmt.Errorf("place: %d pads exceed IO capacity %d", needIO, len(sites.byClass[coffe.TileIO])*ioPadsPerTile)
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
					return nil, fmt.Errorf("place: IO overflow")
				}
			} else if k >= len(s) {
				return nil, fmt.Errorf("place: %s overflow", e.class)
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
	a := &annealer{grid: grid, ents: ents, sites: sites, occupant: occupant}
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
		a.weight = append(a.weight, (1+3*crit[d])*qFactor(len(nl.Sinks[d])))
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

	// Tile coordinate tables.
	a.tileX = make([]int32, grid.NumTiles())
	a.tileY = make([]int32, grid.NumTiles())
	for idx := 0; idx < grid.NumTiles(); idx++ {
		x, y := grid.At(idx)
		a.tileX[idx] = int32(x)
		a.tileY[idx] = int32(y)
	}

	// Initial bounding boxes and costs (same accumulation order as the
	// seed: net by net, in net-index order).
	a.netCost = make([]float64, numNets)
	a.bb = make([]bbox, numNets)
	for ni := 0; ni < numNets; ni++ {
		a.rescan(ni)
		a.netCost[ni] = a.cost(ni)
		a.total += a.netCost[ni]
	}

	// Per-move scratch.
	a.touchStamp = make([]int32, numNets)
	a.touchFlag = make([]uint8, numNets)
	for i := range a.touchStamp {
		a.touchStamp[i] = -1
	}

	// Thermal-aware extension: aggregate the block-power proxy per entity,
	// deposit it on the initial tiles, and normalize the weight so the
	// thermal objective enters the cost in wirelength units.
	if tc != nil {
		if tc.Kernel.W != grid.W || tc.Kernel.H != grid.H {
			return nil, fmt.Errorf("place: thermal kernel %dx%d != grid %dx%d",
				tc.Kernel.W, tc.Kernel.H, grid.W, grid.H)
		}
		if len(tc.BlockPowerUW) != len(nl.Blocks) {
			return nil, fmt.Errorf("place: block power length %d != %d blocks",
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
			return nil, err
		}
		if obj := est.Objective(); obj > 0 && a.total > 0 {
			a.est = est
			a.thermW = tc.Weight * a.total / obj
		}
		// A powerless or netless design has nothing thermal to trade off;
		// est stays nil and the anneal runs the baseline arithmetic.
	}

	// Annealing schedule (VPR-like), identical to the seed.
	movesPerT := int(effort * 8 * math.Pow(float64(len(ents)), 1.2))
	if movesPerT < 200 {
		movesPerT = 200
	}
	rangeLim := float64(max(grid.W, grid.H))
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
		// Shrink the move range toward the sweet spot.
		rangeLim = math.Max(1, rangeLim*(1-0.44+frac))
		if frac < 0.02 && temp < 0.01*a.total/float64(numNets+1) {
			break
		}
	}

	pl := &Placement{Grid: grid, Packed: p, TileOf: make([]int, len(nl.Blocks)), Cost: a.total}
	for i := range pl.TileOf {
		pl.TileOf[i] = -1
		if entOf[i] >= 0 {
			pl.TileOf[i] = ents[entOf[i]].tile
		}
	}
	return pl, nil
}

// cost prices a net from its cached bounding box: exactly the seed's
// weight × integer-HPWL product (the box is integral, so the float64
// conversion is exact and the value is bit-identical to a full recompute).
func (a *annealer) cost(ni int) float64 {
	b := &a.bb[ni]
	return a.weight[ni] * float64(int(b.maxX-b.minX)+int(b.maxY-b.minY))
}

// rescan rebuilds one net's bounding box and boundary counts from the
// current entity positions.
func (a *annealer) rescan(ni int) {
	b := bbox{minX: math.MaxInt32, minY: math.MaxInt32, maxX: -1, maxY: -1}
	for _, ei := range a.endsList[a.endsStart[ni]:a.endsStart[ni+1]] {
		tile := a.ents[ei].tile
		x, y := a.tileX[tile], a.tileY[tile]
		switch {
		case x < b.minX:
			b.minX, b.cMinX = x, 1
		case x == b.minX:
			b.cMinX++
		}
		switch {
		case x > b.maxX:
			b.maxX, b.cMaxX = x, 1
		case x == b.maxX:
			b.cMaxX++
		}
		switch {
		case y < b.minY:
			b.minY, b.cMinY = y, 1
		case y == b.minY:
			b.cMinY++
		}
		switch {
		case y > b.maxY:
			b.maxY, b.cMaxY = y, 1
		case y == b.maxY:
			b.cMaxY++
		}
	}
	a.bb[ni] = b
}

// movePoint slides one endpoint of net ni from (ox,oy) to (nx,ny),
// updating the cached box and counts. It returns false when a boundary
// count dropped to zero and the box must be rescanned.
func (a *annealer) movePoint(ni int, ox, oy, nx, ny int32) bool {
	b := &a.bb[ni]
	if ox == b.minX {
		b.cMinX--
	}
	if ox == b.maxX {
		b.cMaxX--
	}
	if oy == b.minY {
		b.cMinY--
	}
	if oy == b.maxY {
		b.cMaxY--
	}
	switch {
	case nx < b.minX:
		b.minX, b.cMinX = nx, 1
	case nx == b.minX:
		b.cMinX++
	}
	switch {
	case nx > b.maxX:
		b.maxX, b.cMaxX = nx, 1
	case nx == b.maxX:
		b.cMaxX++
	}
	switch {
	case ny < b.minY:
		b.minY, b.cMinY = ny, 1
	case ny == b.minY:
		b.cMinY++
	}
	switch {
	case ny > b.maxY:
		b.maxY, b.cMaxY = ny, 1
	case ny == b.maxY:
		b.cMaxY++
	}
	return b.cMinX > 0 && b.cMaxX > 0 && b.cMinY > 0 && b.cMaxY > 0
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

	// Collect the affected nets, deduplicated with a stamp and sorted so
	// the summation order matches the seed exactly.
	a.stamp++
	stamp := a.stamp
	a.touched = a.touched[:0]
	for _, ni := range a.netsAtList[a.netsAtStart[ei]:a.netsAtStart[ei+1]] {
		a.touchStamp[ni] = stamp
		a.touchFlag[ni] = 1
		a.touched = append(a.touched, int(ni))
	}
	if hasOcc {
		for _, ni := range a.netsAtList[a.netsAtStart[oi]:a.netsAtStart[oi+1]] {
			if a.touchStamp[ni] == stamp {
				a.touchFlag[ni] |= 2
				continue
			}
			a.touchStamp[ni] = stamp
			a.touchFlag[ni] = 2
			a.touched = append(a.touched, int(ni))
		}
	}
	sort.Ints(a.touched)
	oldSum := 0.0
	for _, ni := range a.touched {
		oldSum += a.netCost[ni]
	}

	// Apply tentatively.
	oldTile, oldSlot := e.tile, e.slot
	a.occupant[oldTile*ioPadsPerTile+oldSlot] = -1
	if hasOcc {
		o := &ents[oi]
		o.tile, o.slot = oldTile, oldSlot
		a.occupant[oldTile*ioPadsPerTile+oldSlot] = int32(oi)
	}
	e.tile, e.slot = target, slot
	a.occupant[target*ioPadsPerTile+slot] = int32(ei)

	// Incremental bbox update per touched net: O(moved endpoints), with a
	// targeted rescan only when a boundary count collapses. The new cost is
	// the same weight × integer-span product the seed recomputed from
	// scratch, so newSum (accumulated in the same sorted order) is
	// bit-identical.
	ex0, ey0 := a.tileX[oldTile], a.tileY[oldTile]
	ex1, ey1 := a.tileX[target], a.tileY[target]
	if cap(a.savedBB) < len(a.touched) {
		a.savedBB = make([]bbox, len(a.touched), 2*len(a.touched)+8)
		a.newCosts = make([]float64, len(a.touched), 2*len(a.touched)+8)
	}
	a.savedBB = a.savedBB[:len(a.touched)]
	a.newCosts = a.newCosts[:len(a.touched)]
	newSum := 0.0
	for i, ni := range a.touched {
		a.savedBB[i] = a.bb[ni]
		ok := true
		f := a.touchFlag[ni]
		if f&1 != 0 && (ex0 != ex1 || ey0 != ey1) {
			ok = a.movePoint(ni, ex0, ey0, ex1, ey1)
		}
		if f&2 != 0 && (ex0 != ex1 || ey0 != ey1) {
			// The displaced entity moved the opposite way.
			if !a.movePoint(ni, ex1, ey1, ex0, ey0) {
				ok = false
			}
		}
		if !ok {
			a.rescan(ni)
		}
		c := a.cost(ni)
		a.newCosts[i] = c
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
			delta += a.thermW * a.est.MoveDelta(thermQ, oldTile, target)
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
	// Revert positions, occupancy, and cached boxes.
	a.occupant[target*ioPadsPerTile+slot] = -1
	if hasOcc {
		o := &ents[oi]
		o.tile, o.slot = target, slot
		a.occupant[target*ioPadsPerTile+slot] = int32(oi)
	}
	e.tile, e.slot = oldTile, oldSlot
	a.occupant[oldTile*ioPadsPerTile+oldSlot] = int32(ei)
	for i, ni := range a.touched {
		a.bb[ni] = a.savedBB[i]
	}
	return false
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
		return 1.0 + 0.06*float64(fanout-3)
	default:
		return 1.42 + 0.02*float64(fanout-10)
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
