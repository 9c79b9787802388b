// Package arch models the island-style FPGA floorplan: a 2-D grid of tiles
// (logic clusters, BRAM columns, DSP columns, an IO ring) with the Table I
// architecture parameters. The grid is the spatial substrate shared by
// placement, routing, power mapping, and thermal simulation — a tile is both
// a placement site and a thermal node.
package arch

import (
	"fmt"
	"math"

	"tafpga/internal/coffe"
)

// Column spacing of the heterogeneous blocks, mirroring commercial devices
// (a memory column every few logic columns, DSP columns rarer).
const (
	bramColumnEvery = 8
	dspColumnEvery  = 12
)

// Grid is the FPGA floorplan. Coordinates are x (column) in [0, W) and y
// (row) in [0, H); the outer ring is IO.
type Grid struct {
	// W and H are the grid dimensions in tiles, including the IO ring.
	W, H int
	// Params are the architecture parameters the fabric was built with.
	Params coffe.Params

	class []coffe.TileClass
}

// Build returns the smallest square grid whose capacities cover the
// requested block counts. It panics only on negative demands (a programming
// error); zero demands yield a minimal grid.
func Build(params coffe.Params, logicBlocks, bramBlocks, dspBlocks int) (*Grid, error) {
	if logicBlocks < 0 || bramBlocks < 0 || dspBlocks < 0 {
		return nil, fmt.Errorf("arch: negative block demand (%d, %d, %d)", logicBlocks, bramBlocks, dspBlocks)
	}
	// Start from the logic-driven lower bound and grow until all three
	// capacities fit.
	side := int(math.Ceil(math.Sqrt(float64(logicBlocks)))) + 2
	if side < 6 {
		side = 6
	}
	for ; ; side++ {
		g := layout(params, side)
		if g.Capacity(coffe.TileLogic) >= logicBlocks &&
			g.Capacity(coffe.TileBRAM) >= bramBlocks &&
			g.Capacity(coffe.TileDSP) >= dspBlocks {
			return g, nil
		}
		if side > 4096 {
			return nil, fmt.Errorf("arch: demand (%d, %d, %d) does not fit any supported grid", logicBlocks, bramBlocks, dspBlocks)
		}
	}
}

// layout builds a side×side grid with the standard column pattern.
func layout(params coffe.Params, side int) *Grid {
	g := &Grid{W: side, H: side, Params: params, class: make([]coffe.TileClass, side*side)}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			c := coffe.TileLogic
			switch {
			case x == 0 || y == 0 || x == side-1 || y == side-1:
				c = coffe.TileIO
			case x%dspColumnEvery == dspColumnEvery/2:
				c = coffe.TileDSP
			case x%bramColumnEvery == bramColumnEvery/2:
				c = coffe.TileBRAM
			}
			g.class[y*side+x] = c
		}
	}
	return g
}

// Index maps a coordinate to the flat tile index used by the power and
// temperature vectors.
func (g *Grid) Index(x, y int) int {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		panic(fmt.Sprintf("arch: coordinate (%d,%d) outside %dx%d grid", x, y, g.W, g.H))
	}
	return y*g.W + x
}

// At returns the coordinate of a flat tile index.
func (g *Grid) At(idx int) (x, y int) { return idx % g.W, idx / g.W }

// NumTiles returns the total number of tiles (thermal nodes).
func (g *Grid) NumTiles() int { return g.W * g.H }

// Class returns the tile class at (x, y).
func (g *Grid) Class(x, y int) coffe.TileClass { return g.class[g.Index(x, y)] }

// ClassAt returns the tile class at a flat index.
func (g *Grid) ClassAt(idx int) coffe.TileClass { return g.class[idx] }

// Capacity returns the number of tiles of the given class.
func (g *Grid) Capacity(c coffe.TileClass) int {
	n := 0
	for _, cl := range g.class {
		if cl == c {
			n++
		}
	}
	return n
}

// Sites returns all coordinates of the given class in row-major order.
func (g *Grid) Sites(c coffe.TileClass) [][2]int {
	var out [][2]int
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if g.Class(x, y) == c {
				out = append(out, [2]int{x, y})
			}
		}
	}
	return out
}

// String summarizes the floorplan.
func (g *Grid) String() string {
	return fmt.Sprintf("%dx%d grid: %d logic, %d bram, %d dsp, %d io tiles",
		g.W, g.H, g.Capacity(coffe.TileLogic), g.Capacity(coffe.TileBRAM),
		g.Capacity(coffe.TileDSP), g.Capacity(coffe.TileIO))
}
