// Package techmodel provides the transistor- and wire-level physics that the
// rest of the flow builds on. It replaces the role HSPICE + the 22 nm PTM
// process models play in the paper: given a transistor flavor, a drawn width,
// and a junction temperature, it answers the three questions the CAD flow
// asks of SPICE — how resistive is the device (delay), how much does it leak
// (static power), and how much charge does it move (dynamic power / loading).
//
// The drive model is an alpha-power law with an explicit effective mobility
// exponent:
//
//	Ron(T) ∝ (TK/TK0)^TempExp · ((Vdd−Vth0)/(Vdd−Vth(T)))^Alpha
//
// TempExp folds phonon-limited mobility degradation together with
// flavor-specific effects (body effect and stacking in pass-transistor
// networks, vertical-field dependence in standard-cell stacks); it is the
// calibration knob that sets each resource class's delay-vs-temperature
// slope, which the paper measured with HSPICE (their Fig. 1 / Table II).
//
// Leakage uses the paper's own published fitted form, P ∝ e^(KLeak·(T−T0)),
// with per-cell Vth variation layered on top through the subthreshold
// exponential for Monte-Carlo weakest-cell analysis (needed by BRAM sizing).
//
// Units follow the repo convention: ps, fF, kΩ (so R·C is directly ps),
// µm widths, µW power, °C temperatures.
package techmodel

import (
	"fmt"
	"math"
)

// T0 is the reference characterization temperature in °C. All base
// parameters (R0, I0, Vth0) are specified at T0.
const T0 = 25.0

// kelvin converts a junction temperature in °C to K.
func kelvin(tempC float64) float64 { return tempC + 273.15 }

// Flavor describes one transistor option of the process design kit. The
// default kit (see Kit) models a 22 nm high-performance process with a
// separate low-power (high-Vth) option for the BRAM core, mirroring the
// paper's use of PTM 22 nm HP for the soft fabric and its low-power
// transistors for the BRAM.
type Flavor struct {
	Name string

	// Vdd is the supply voltage in volts seen by this flavor.
	Vdd float64
	// Vth0 is the threshold voltage at T0 in volts, including any static
	// body-effect penalty for the flavor's typical connection (pass
	// transistors carry a higher effective Vth0).
	Vth0 float64
	// KVth is the threshold temperature coefficient in V/°C; Vth falls as
	// temperature rises: Vth(T) = Vth0 − KVth·(T−T0).
	KVth float64
	// Alpha is the alpha-power-law velocity-saturation exponent.
	Alpha float64
	// TempExp is the effective mobility temperature exponent γ in
	// μ(T) ∝ (TK/TK0)^−γ. Larger values make the flavor slower at high
	// temperature. See the package comment.
	TempExp float64

	// R0 is the on-resistance × width product at T0, in kΩ·µm: a device of
	// width w µm has Ron = R0/w kΩ at T0.
	R0 float64
	// CgPerUm and CjPerUm are gate and drain-junction capacitance per µm of
	// width, in fF/µm.
	CgPerUm float64
	CjPerUm float64

	// I0 is the subthreshold leakage power per µm of width at T0 and Vth0,
	// in µW/µm (already multiplied by Vdd).
	I0 float64
	// KLeak is the fitted leakage temperature exponent in 1/°C:
	// P_lkg(T) = P_lkg(T0)·e^(KLeak·(T−T0)).
	KLeak float64
	// SubSlope is the subthreshold slope factor n used when translating a
	// ΔVth (from process variation) into a leakage multiplier.
	SubSlope float64

	// AreaPerUm is layout area per µm of drawn width, in µm²/µm. It feeds
	// the area side of the area·delay sizing objective.
	AreaPerUm float64
}

// Vth returns the threshold voltage at junction temperature tempC.
func (f *Flavor) Vth(tempC float64) float64 {
	return f.Vth0 - f.KVth*(tempC-T0)
}

// Overdrive returns Vdd − Vth(T); it panics if the flavor cannot conduct at
// the requested temperature, which indicates a miscalibrated kit rather than
// a recoverable condition.
func (f *Flavor) Overdrive(tempC float64) float64 {
	ov := f.Vdd - f.Vth(tempC)
	if ov <= 0 {
		panic(fmt.Sprintf("techmodel: flavor %s has non-positive overdrive at %.1f°C", f.Name, tempC))
	}
	return ov
}

// RonFactor returns Ron(T)/Ron(T0), the dimensionless temperature scaling of
// the on-resistance: mobility degradation slows the device while the falling
// threshold partially compensates.
func (f *Flavor) RonFactor(tempC float64) float64 {
	mob := math.Pow(kelvin(tempC)/kelvin(T0), f.TempExp)
	ovd := math.Pow(f.Overdrive(T0)/f.Overdrive(tempC), f.Alpha)
	return mob * ovd
}

// Ron returns the on-resistance in kΩ of a device of width µm at tempC.
func (f *Flavor) Ron(width, tempC float64) float64 {
	if width <= 0 {
		panic(fmt.Sprintf("techmodel: non-positive width %g for flavor %s", width, f.Name))
	}
	return f.R0 / width * f.RonFactor(tempC)
}

// Cg returns the gate capacitance in fF of a device of width µm.
func (f *Flavor) Cg(width float64) float64 { return f.CgPerUm * width }

// Cj returns the drain-junction capacitance in fF of a device of width µm.
func (f *Flavor) Cj(width float64) float64 { return f.CjPerUm * width }

// Leak returns the static leakage power in µW of a device of width µm at
// tempC, using the fitted exponential form.
func (f *Flavor) Leak(width, tempC float64) float64 {
	return f.I0 * width * math.Exp(f.KLeak*(tempC-T0))
}

// Area returns the layout area in µm² of a device of width µm.
func (f *Flavor) Area(width float64) float64 { return f.AreaPerUm * width }

// thermalVoltage returns kT/q in volts at tempC.
func thermalVoltage(tempC float64) float64 {
	const kOverQ = 8.617333262e-5 // V/K
	return kOverQ * kelvin(tempC)
}

// Kit bundles the flavors of the process design kit plus the interconnect
// model. A Kit is immutable after creation; the sizing engine treats it as
// the ground truth the paper obtains from PTM.
type Kit struct {
	// Buf is the high-performance NMOS flavor used for buffers, drivers,
	// and full-rail logic in the soft fabric (pull-down networks).
	Buf Flavor
	// BufP is the matching PMOS pull-up flavor. Hole mobility is lower and
	// degrades faster with temperature than electron mobility, so the
	// optimal P:N width split of every buffer shifts with the sizing
	// corner — one of the mechanisms behind corner-specific fabrics.
	BufP Flavor
	// Pass is the NMOS pass-transistor flavor used in mux trees and LUT
	// input trees; it carries the body-effect Vth penalty and the higher
	// effective temperature exponent of stacked low-overdrive devices.
	Pass Flavor
	// Cell is the standard-cell NMOS flavor used by the DSP block's
	// gate-level netlist (NanGate-like cells in the paper).
	Cell Flavor
	// CellP is the standard-cell PMOS flavor.
	CellP Flavor
	// SRAM is the low-power high-Vth flavor used for the BRAM core array.
	SRAM Flavor
	// Wire is the metal interconnect model.
	Wire Wire
}

// WorstEdgeRon returns the worst-edge drive resistance in kΩ of a CMOS
// stage of total width µm whose P:N split is pnSplit (fraction of width
// given to the pull-up): static timing takes the slower of the rising
// (PMOS) and falling (NMOS) transition. Because hole and electron mobility
// degrade at different rates with temperature, the split that balances the
// two edges — and therefore minimizes this worst-edge delay — depends on
// the sizing corner.
func (k *Kit) WorstEdgeRon(width, pnSplit, tempC float64) float64 {
	if pnSplit <= 0 || pnSplit >= 1 {
		panic(fmt.Sprintf("techmodel: P/N split %g outside (0,1)", pnSplit))
	}
	rUp := k.BufP.Ron(width*pnSplit, tempC)
	rDn := k.Buf.Ron(width*(1-pnSplit), tempC)
	return math.Max(rUp, rDn)
}

// NominalSplit is the P:N split that balances rise and fall at the
// reference temperature; external drivers are assumed to use it.
func (k *Kit) NominalSplit() float64 { return k.BufP.R0 / (k.BufP.R0 + k.Buf.R0) }

// BalancedRon is WorstEdgeRon at the nominal split — the effective drive
// resistance of an upstream buffer whose exact sizing is not in scope.
func (k *Kit) BalancedRon(width, tempC float64) float64 {
	return k.WorstEdgeRon(width, k.NominalSplit(), tempC)
}

// Default22nm returns the calibrated 22 nm kit. The numeric values are
// calibration artifacts: they are chosen so that the COFFE-style sizing of
// the default architecture at 25 °C reproduces the paper's Table II
// characterization (delay intercepts and slopes, dynamic powers, leakage
// magnitudes) to within the tolerances recorded in EXPERIMENTS.md.
func Default22nm() *Kit {
	return &Kit{
		Buf: Flavor{
			Name: "hp-nmos", Vdd: 0.8, Vth0: 0.34, KVth: 0.00045,
			Alpha: 1.3, TempExp: 1.28,
			R0: 1.72, CgPerUm: 0.90, CjPerUm: 0.80,
			I0: 0.020, KLeak: 0.014, SubSlope: 1.5, AreaPerUm: 0.13,
		},
		BufP: Flavor{
			Name: "hp-pmos", Vdd: 0.8, Vth0: 0.36, KVth: 0.00045,
			Alpha: 1.3, TempExp: 0.73,
			R0: 3.78, CgPerUm: 0.90, CjPerUm: 0.80,
			I0: 0.012, KLeak: 0.014, SubSlope: 1.5, AreaPerUm: 0.13,
		},
		Pass: Flavor{
			Name: "hp-pass", Vdd: 0.8, Vth0: 0.42, KVth: 0.00040,
			Alpha: 1.3, TempExp: 2.75,
			R0: 5.5, CgPerUm: 0.85, CjPerUm: 0.45,
			I0: 0.130, KLeak: 0.0145, SubSlope: 1.5, AreaPerUm: 0.11,
		},
		Cell: Flavor{
			Name: "cell-nmos", Vdd: 0.8, Vth0: 0.36, KVth: 0.00045,
			Alpha: 1.3, TempExp: 2.07,
			R0: 0.69, CgPerUm: 0.92, CjPerUm: 0.82,
			I0: 0.0035, KLeak: 0.010, SubSlope: 1.5, AreaPerUm: 0.14,
		},
		CellP: Flavor{
			Name: "cell-pmos", Vdd: 0.8, Vth0: 0.38, KVth: 0.00045,
			Alpha: 1.3, TempExp: 2.41,
			R0: 1.51, CgPerUm: 0.92, CjPerUm: 0.82,
			I0: 0.0022, KLeak: 0.010, SubSlope: 1.5, AreaPerUm: 0.14,
		},
		SRAM: Flavor{
			Name: "lp-sram", Vdd: 0.95, Vth0: 0.50, KVth: 0.00050,
			Alpha: 1.3, TempExp: 2.30,
			R0: 2.4, CgPerUm: 0.95, CjPerUm: 0.85,
			I0: 0.0010, KLeak: 0.0145, SubSlope: 1.55, AreaPerUm: 0.09,
		},
		Wire: Wire{
			RPerUm0: 0.00185, // kΩ/µm at T0
			CPerUm:  0.30,    // fF/µm
			TCR:     0.0039,  // copper, 1/°C
		},
	}
}
