// Package thermalest is the cheap, incrementally-updatable thermal
// estimator that lets the placement annealer consume the thermal model
// instead of merely being measured by it (the paper's flow computes the
// guardband only *after* placement; DiffChip-style thermal-aware placement
// closes that loop).
//
// The estimator exploits an exact linearity of the hotspot network: the
// spreader temperature depends only on total power, which placement moves
// conserve, and the per-tile rise over the spreader is K⁻¹·p for the die
// conductance matrix K. A truncated influence kernel — column j of K⁻¹
// clipped to a Chebyshev box around tile j — therefore prices a power move
// in O(radius²) instead of one full thermal solve per move. The lateral/
// vertical resistance ratio gives the columns a screening length of
// √(RVert/RLat) = 2 tiles, so a modest radius captures almost all of the
// response (see DESIGN.md §16 for the truncation bound).
package thermalest

import (
	"fmt"
	"math"
	"sync"

	"tafpga/internal/hotspot"
)

// DefaultRadius is the kernel truncation radius used when a caller passes
// radius <= 0: 3× the screening length of the default resistance split.
// The clipped box holds ~93 % of the impulse-response mass (≥99 % needs
// radius 12); the residual far field is nearly uniform across the die, so
// it largely cancels between a move's source and destination columns and
// the priced deltas are much more accurate than the raw mass suggests.
const DefaultRadius = 6

// Kernel is the truncated per-tile thermal influence kernel of one grid
// shape: for every tile i it stores the steady-state temperature rises
// (in kelvin per µW injected at i) over the clipped Chebyshev box of
// radius Radius around i. Kernels are immutable and safe to share.
type Kernel struct {
	W, H   int
	Radius int

	// cols[i] is tile i's truncated column, row-major over the clipped
	// box whose origin and extent are x0/y0 and bw/bh.
	cols           [][]float64
	x0, y0, bw, bh []int32
}

// NewKernel builds the kernel from the model's influence columns: one
// factorized solve per tile, done once per grid/arch (see KernelFor for
// the process-wide cache).
func NewKernel(m *hotspot.Model, radius int) (*Kernel, error) {
	if radius <= 0 {
		radius = DefaultRadius
	}
	n := m.W * m.H
	if n < 1 {
		return nil, fmt.Errorf("thermalest: invalid grid %dx%d", m.W, m.H)
	}
	k := &Kernel{
		W: m.W, H: m.H, Radius: radius,
		cols: make([][]float64, n),
		x0:   make([]int32, n), y0: make([]int32, n),
		bw: make([]int32, n), bh: make([]int32, n),
	}
	full := make([]float64, n)
	for i := 0; i < n; i++ {
		if err := m.Influence(i, full); err != nil {
			return nil, err
		}
		xi, yi := i%m.W, i/m.W
		x0, x1 := maxi(0, xi-radius), mini(m.W-1, xi+radius)
		y0, y1 := maxi(0, yi-radius), mini(m.H-1, yi+radius)
		bw, bh := x1-x0+1, y1-y0+1
		col := make([]float64, bw*bh)
		for dy := 0; dy < bh; dy++ {
			for dx := 0; dx < bw; dx++ {
				// Influence is K/W; tile powers are µW, so pre-scale the
				// column to K/µW and the rise field comes out in kelvin.
				col[dy*bw+dx] = full[(y0+dy)*m.W+x0+dx] * 1e-6
			}
		}
		k.cols[i] = col
		k.x0[i], k.y0[i] = int32(x0), int32(y0)
		k.bw[i], k.bh[i] = int32(bw), int32(bh)
	}
	return k, nil
}

// kernelKey identifies a kernel by everything the columns depend on: the
// grid shape, the truncation radius, and the die resistances. The sink
// resistance is deliberately absent — it only shifts the spreader
// temperature, never the rise field.
type kernelKey struct {
	w, h, radius int
	rVert, rLat  float64
}

type kernelEntry struct {
	once sync.Once
	k    *Kernel
	err  error
}

var kernelCache = struct {
	sync.Mutex
	m map[kernelKey]*kernelEntry
}{m: map[kernelKey]*kernelEntry{}}

// KernelFor returns the process-wide cached kernel for the model's grid
// and resistances, building it on first use. Concurrent callers for the
// same key share one build; the cache resets wholesale rather than growing
// past a few dozen shapes (sweeps reuse a handful of grids).
func KernelFor(m *hotspot.Model, radius int) (*Kernel, error) {
	if radius <= 0 {
		radius = DefaultRadius
	}
	key := kernelKey{m.W, m.H, radius, m.RVertKPerW, m.RLatKPerW}
	kernelCache.Lock()
	e, ok := kernelCache.m[key]
	if !ok {
		if len(kernelCache.m) >= 32 {
			kernelCache.m = map[kernelKey]*kernelEntry{}
		}
		e = &kernelEntry{}
		kernelCache.m[key] = e
	}
	kernelCache.Unlock()
	e.once.Do(func() { e.k, e.err = NewKernel(m, radius) })
	return e.k, e.err
}

// Estimate maintains the incremental rise field of one placement: per-tile
// deposited power, the superposed truncated rises, and the weighted
// objective Σ rise² (sum of squared kelvin rises — smooth, hotspot-seeking,
// and exactly decomposable into per-move deltas).
type Estimate struct {
	k *Kernel
	// powerUW[tile] is the power currently deposited at each tile.
	powerUW []float64
	// rise[tile] is the estimated temperature rise over the spreader.
	rise    []float64
	scratch []float64
	obj     float64
}

// New builds an estimate over an initial per-tile power vector (µW).
func New(k *Kernel, tilePowerUW []float64) (*Estimate, error) {
	n := k.W * k.H
	if len(tilePowerUW) != n {
		return nil, fmt.Errorf("thermalest: power vector length %d != %d tiles", len(tilePowerUW), n)
	}
	e := &Estimate{
		k:       k,
		powerUW: append([]float64(nil), tilePowerUW...),
		rise:    make([]float64, n),
		scratch: make([]float64, n),
	}
	e.Recompute()
	return e, nil
}

// transfer prices moving powerUW of power from tile from to tile to
// against the current rise field, returning the objective change
// Σ δ·(2·rise + δ) over the two truncated boxes. With commit it also
// updates the rise field, tile powers, and objective — in the identical
// floating-point order, so Apply returns bit-for-bit the value MoveDelta
// quoted for the same state. Negative powerUW (a swap moving the lighter
// entity toward the heavier one's tile) is a transfer in the other
// direction and needs no special casing. Allocation-free.
func (e *Estimate) transfer(powerUW float64, from, to int, commit bool) float64 {
	if powerUW == 0 || from == to {
		return 0
	}
	k := e.k
	fcol := k.cols[from]
	fx0, fy0 := int(k.x0[from]), int(k.y0[from])
	fbw, fbh := int(k.bw[from]), int(k.bh[from])
	tcol := k.cols[to]
	tx0, ty0 := int(k.x0[to]), int(k.y0[to])
	tbw, tbh := int(k.bw[to]), int(k.bh[to])

	d := 0.0
	// Destination box: each tile gains powerUW·k_to, minus powerUW·k_from
	// where the source box overlaps.
	for dy := 0; dy < tbh; dy++ {
		y := ty0 + dy
		row := tcol[dy*tbw : (dy+1)*tbw]
		fdy := y - fy0
		inY := fdy >= 0 && fdy < fbh
		for dx := 0; dx < tbw; dx++ {
			dlt := powerUW * row[dx]
			if inY {
				if fdx := tx0 + dx - fx0; fdx >= 0 && fdx < fbw {
					dlt -= powerUW * fcol[fdy*fbw+fdx]
				}
			}
			j := y*k.W + tx0 + dx
			r := e.rise[j]
			d += dlt * (2*r + dlt)
			if commit {
				e.rise[j] = r + dlt
			}
		}
	}
	// Source-only tiles: pure loss of powerUW·k_from.
	for dy := 0; dy < fbh; dy++ {
		y := fy0 + dy
		row := fcol[dy*fbw : (dy+1)*fbw]
		tdy := y - ty0
		inY := tdy >= 0 && tdy < tbh
		for dx := 0; dx < fbw; dx++ {
			if inY {
				if tdx := fx0 + dx - tx0; tdx >= 0 && tdx < tbw {
					continue
				}
			}
			dlt := -powerUW * row[dx]
			j := y*k.W + fx0 + dx
			r := e.rise[j]
			d += dlt * (2*r + dlt)
			if commit {
				e.rise[j] = r + dlt
			}
		}
	}
	if commit {
		e.powerUW[from] -= powerUW
		e.powerUW[to] += powerUW
		e.obj += d
	}
	return d
}

// MoveDelta returns the objective change of moving powerUW µW (the moved
// block's power, or for a swap the net difference of the two blocks') from
// tile from to tile to, without committing. O(radius²), allocation-free.
func (e *Estimate) MoveDelta(powerUW float64, from, to int) float64 {
	return e.transfer(powerUW, from, to, false)
}

// Apply commits the move MoveDelta priced, returning the identical delta.
func (e *Estimate) Apply(powerUW float64, from, to int) float64 {
	return e.transfer(powerUW, from, to, true)
}

// Objective returns the current Σ rise² in K².
func (e *Estimate) Objective() float64 { return e.obj }

// PeakRise returns the hottest estimated tile rise in kelvin.
func (e *Estimate) PeakRise() float64 {
	hi := 0.0
	for _, r := range e.rise {
		if r > hi {
			hi = r
		}
	}
	return hi
}

// Recompute rebuilds the rise field and objective exactly from the tile
// powers (deterministic order: tiles ascending, box rows ascending) and
// returns the largest absolute per-tile drift it corrected — the
// validation hook for the incremental bookkeeping, and the annealer's
// periodic re-normalization against floating-point drift.
func (e *Estimate) Recompute() float64 {
	k := e.k
	n := k.W * k.H
	fresh := e.scratch
	for j := range fresh {
		fresh[j] = 0
	}
	for i := 0; i < n; i++ {
		p := e.powerUW[i]
		if p == 0 {
			continue
		}
		col := k.cols[i]
		x0, y0 := int(k.x0[i]), int(k.y0[i])
		bw, bh := int(k.bw[i]), int(k.bh[i])
		for dy := 0; dy < bh; dy++ {
			base := (y0+dy)*k.W + x0
			row := col[dy*bw : (dy+1)*bw]
			for dx, v := range row {
				fresh[base+dx] += p * v
			}
		}
	}
	drift := 0.0
	for j := range fresh {
		if d := math.Abs(fresh[j] - e.rise[j]); d > drift {
			drift = d
		}
	}
	e.rise, e.scratch = fresh, e.rise
	obj := 0.0
	for _, r := range e.rise {
		obj += r * r
	}
	e.obj = obj
	return drift
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}
