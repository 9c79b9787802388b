// Package stdcell provides a small standard-cell library characterized over
// temperature. It stands in for the paper's NanGate open cell library +
// Synopsys SiliconSmart flow: for any junction temperature it produces a
// liberty-style snapshot (intrinsic delay, load-dependent slope, input
// capacitance, leakage, area per cell) that the DSP block's gate-level
// netlist is then timed and powered against.
package stdcell

import (
	"fmt"
	"math"
	"sort"

	"tafpga/internal/techmodel"
)

const rcLn2 = 0.69

// Kind enumerates the cells in the library.
type Kind int

const (
	INV Kind = iota
	NAND2
	NAND3
	NOR2
	XOR2
	MUX2
	AOI21
	FA  // full adder, sum and carry arcs collapsed to the worst arc
	DFF // timing handled via ClkToQ / Setup
	numKinds
)

var kindNames = [...]string{"INV", "NAND2", "NAND3", "NOR2", "XOR2", "MUX2", "AOI21", "FA", "DFF"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// proto captures the transistor-level shape of each cell: drive width,
// worst-case series stack depth, internal node capacitance, number of
// leaking device-widths, and layout area.
type proto struct {
	driveUm    float64 // effective pull width in µm
	stack      float64 // series-stack resistance multiplier on the worst arc
	internalFF float64 // internal node capacitance in fF
	inputLoads float64 // input cap multiplier (× Cg(driveUm)) per input pin
	leakUm     float64 // total leaking width in µm
	areaUm2    float64
	inputs     int
}

var protos = [numKinds]proto{
	INV:   {driveUm: 0.5, stack: 1.0, internalFF: 0.0, inputLoads: 1.0, leakUm: 1.0, areaUm2: 0.65, inputs: 1},
	NAND2: {driveUm: 0.5, stack: 1.35, internalFF: 0.3, inputLoads: 1.0, leakUm: 1.6, areaUm2: 0.98, inputs: 2},
	NAND3: {driveUm: 0.5, stack: 1.75, internalFF: 0.6, inputLoads: 1.0, leakUm: 2.2, areaUm2: 1.30, inputs: 3},
	NOR2:  {driveUm: 0.5, stack: 1.45, internalFF: 0.3, inputLoads: 1.0, leakUm: 1.7, areaUm2: 1.00, inputs: 2},
	XOR2:  {driveUm: 0.5, stack: 2.1, internalFF: 1.2, inputLoads: 1.8, leakUm: 3.4, areaUm2: 1.95, inputs: 2},
	MUX2:  {driveUm: 0.5, stack: 1.8, internalFF: 0.9, inputLoads: 1.3, leakUm: 2.8, areaUm2: 1.70, inputs: 3},
	AOI21: {driveUm: 0.5, stack: 1.65, internalFF: 0.5, inputLoads: 1.0, leakUm: 2.1, areaUm2: 1.25, inputs: 3},
	FA:    {driveUm: 0.6, stack: 2.6, internalFF: 2.6, inputLoads: 1.9, leakUm: 6.5, areaUm2: 4.90, inputs: 3},
	DFF:   {driveUm: 0.5, stack: 2.2, internalFF: 2.0, inputLoads: 1.2, leakUm: 5.0, areaUm2: 4.20, inputs: 1},
}

// Timing is the liberty-style view of one cell at one temperature.
type Timing struct {
	Kind Kind
	// IntrinsicPs is the zero-load propagation delay in ps.
	IntrinsicPs float64
	// SlopePsPerFF is the additional delay per fF of output load.
	SlopePsPerFF float64
	// InputCapFF is the capacitance of one input pin in fF.
	InputCapFF float64
	// LeakUW is static power in µW at the library temperature.
	LeakUW float64
	// AreaUm2 is layout area in µm².
	AreaUm2 float64
	// Inputs is the pin count.
	Inputs int
}

// Library is a characterized snapshot of all cells at one temperature —
// the artifact SiliconSmart produces per corner in the paper's Fig. 5(b).
type Library struct {
	TempC float64
	cells [numKinds]Timing
	kit   *techmodel.Kit
}

// Characterize builds the library snapshot for the given temperature at the
// nominal drive strength and P:N skew.
func Characterize(kit *techmodel.Kit, tempC float64) *Library {
	return CharacterizeScaled(kit, tempC, 1.0, NominalSkew(kit))
}

// NominalSkew is the P:N split that balances cell rise/fall at the
// reference temperature.
func NominalSkew(kit *techmodel.Kit) float64 {
	return kit.CellP.R0 / (kit.CellP.R0 + kit.Cell.R0)
}

// CharacterizeScaled builds the library snapshot with every cell's drive
// width multiplied by scale and the given P:N width split. Both are the
// synthesis-time knobs the sizing engine tunes per thermal corner: the
// aggregate effect of Design Compiler picking stronger/weaker and
// P-heavier/N-heavier drive variants when the target library corner
// changes. Cell delay is worst-edge: the slower of the PMOS rise and NMOS
// fall at the library temperature.
func CharacterizeScaled(kit *techmodel.Kit, tempC, scale, pnSkew float64) *Library {
	if scale <= 0 {
		panic(fmt.Sprintf("stdcell: non-positive drive scale %g", scale))
	}
	if pnSkew <= 0 || pnSkew >= 1 {
		panic(fmt.Sprintf("stdcell: P/N skew %g outside (0,1)", pnSkew))
	}
	lib := &Library{TempC: tempC, kit: kit}
	for k := Kind(0); k < numKinds; k++ {
		p := protos[k]
		w := p.driveUm * scale
		rUp := kit.CellP.Ron(w*pnSkew, tempC)
		rDn := kit.Cell.Ron(w*(1-pnSkew), tempC)
		r := math.Max(rUp, rDn) * p.stack
		lib.cells[k] = Timing{
			Kind:         k,
			IntrinsicPs:  rcLn2 * r * (float64(p.internalFF*scale) + float64(kit.Cell.Cj(w))),
			SlopePsPerFF: rcLn2 * r,
			InputCapFF:   kit.Cell.Cg(w) * p.inputLoads,
			LeakUW:       kit.Cell.Leak(p.leakUm*scale, tempC),
			AreaUm2:      p.areaUm2 * (0.55 + float64(0.45*scale)),
			Inputs:       p.inputs,
		}
	}
	return lib
}

// CellLeak returns the static power in µW of one nominal-drive cell of kind
// k at tempC: Characterize(kit, tempC).Cell(k).LeakUW without building the
// other cells' timing. The FPGA's per-tile leakage reads the flip-flop's
// from it once per tile per power evaluation.
func CellLeak(kit *techmodel.Kit, k Kind, tempC float64) float64 {
	if k < 0 || k >= numKinds {
		panic(fmt.Sprintf("stdcell: invalid kind %d", int(k)))
	}
	return kit.Cell.Leak(protos[k].leakUm, tempC)
}

// Kit returns the process kit the library was characterized against,
// letting netlist-level tools (the DSP STA) price interconnect at the same
// corner.
func (l *Library) Kit() *techmodel.Kit { return l.kit }

// Cell returns the timing record for a kind; it panics on an invalid kind,
// which is a netlist construction bug.
func (l *Library) Cell(k Kind) Timing {
	if k < 0 || k >= numKinds {
		panic(fmt.Sprintf("stdcell: invalid kind %d", int(k)))
	}
	return l.cells[k]
}

// Delay returns the propagation delay in ps of cell k driving loadFF.
func (l *Library) Delay(k Kind, loadFF float64) float64 {
	c := l.Cell(k)
	return c.IntrinsicPs + float64(c.SlopePsPerFF*loadFF)
}

// ClkToQ returns the flip-flop clock-to-output delay in ps at this corner.
func (l *Library) ClkToQ(loadFF float64) float64 { return l.Delay(DFF, loadFF) }

// Setup returns the flip-flop setup time in ps at this corner (modeled as a
// fraction of the DFF intrinsic delay, as in simple liberty models).
func (l *Library) Setup() float64 { return 0.6 * l.Cell(DFF).IntrinsicPs }

// Kinds returns all combinational cell kinds in deterministic order,
// useful for reports and tests.
func Kinds() []Kind {
	ks := make([]Kind, 0, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
