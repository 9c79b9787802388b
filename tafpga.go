// Package tafpga is a thermal-aware FPGA CAD flow: an implementation of
// "Thermal-Aware Design and Flow for FPGA Performance Improvement"
// (Khaleghi and Rosing, DATE 2019) together with every substrate the paper
// builds on — transistor-level device characterization and corner-specific
// sizing (COFFE-style), a standard-cell library and gate-level DSP block,
// an island-style architecture model, a pack/place/route implementation
// flow (VPR-style), activity estimation (ACE-style), per-tile power
// modeling, a steady-state thermal simulator (HotSpot-style), and
// temperature-aware static timing analysis.
//
// The two headline capabilities are:
//
//   - Thermal-aware guardbanding (the paper's Algorithm 1): clock a mapped
//     design for its converged per-tile thermal profile plus a small δT
//     margin instead of the worst-case corner, recovering up to ~36 %
//     performance at a 25 °C ambient.
//
//   - Thermal-aware device selection (Eq. 1): size the fabric for the
//     thermal corner of a foreknown field condition and pick the grade that
//     minimizes expected delay over the operating range.
//
// The quickest path through the API:
//
//	cfg := tafpga.NewConfig()
//	dev, _ := cfg.SizeDevice(25)                       // a D25 fabric
//	nl, _ := tafpga.GenerateBenchmark("sha", 1.0/16)   // a workload
//	opts, _ := tafpga.BenchmarkFlowOptions("sha")      // its flow recipe
//	im, _ := tafpga.Implement(nl, dev, opts)
//	res, _ := im.Guardband(tafpga.GuardbandOptions(25))
//	fmt.Printf("+%.1f%% over worst-case\n", res.GainPct)
//
// The package examples (go test -run Example -v .) walk the same path and
// the paper's corner, grade and voltage studies, with their output.
package tafpga

import (
	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/netlist"
	"tafpga/internal/techmodel"
	"tafpga/internal/thermarch"
)

// Re-exported core types. The aliases make the internal packages' full
// APIs available through the public module surface.
type (
	// Device is a frozen, corner-optimized fabric characterization.
	Device = coffe.Device
	// ArchParams are the Table I architecture parameters.
	ArchParams = coffe.Params
	// ResourceKind identifies one characterized resource class.
	ResourceKind = coffe.ResourceKind
	// Kit is the transistor/wire process design kit.
	Kit = techmodel.Kit
	// Netlist is a technology-mapped design.
	Netlist = netlist.Netlist
	// Implementation is a placed-and-routed design bound to a device.
	Implementation = flow.Implementation
	// FlowOptions tunes the implementation pipeline.
	FlowOptions = flow.Options
	// GuardbandResult reports one Algorithm 1 run.
	GuardbandResult = guardband.Result
	// BenchmarkProfile describes one of the 19 VTR-style workloads.
	BenchmarkProfile = bench.Profile
	// CornerChoice ranks a candidate sizing corner by expected delay.
	CornerChoice = thermarch.CornerChoice
	// Grade is a named thermal device grade.
	Grade = thermarch.Grade
)

// Resource kind constants, re-exported for breakdown inspection.
const (
	SBMux       = coffe.SBMux
	CBMux       = coffe.CBMux
	LocalMux    = coffe.LocalMux
	FeedbackMux = coffe.FeedbackMux
	OutputMux   = coffe.OutputMux
	LUTA        = coffe.LUTA
	BRAM        = coffe.BRAM
	DSP         = coffe.DSP
)

// Config couples a process kit with an architecture.
type Config struct {
	Kit  *Kit
	Arch ArchParams
}

// NewConfig returns the paper's setup: the calibrated 22 nm kit and the
// Table I architecture.
func NewConfig() Config {
	return Config{Kit: techmodel.Default22nm(), Arch: coffe.DefaultParams()}
}

// SizeDevice runs the COFFE-style sizing flow at the given thermal corner
// (°C) and returns the frozen device.
func (c Config) SizeDevice(cornerC float64) (*Device, error) {
	return coffe.SizeDevice(c.Kit, c.Arch, cornerC)
}

// AtVdd returns a configuration whose core-logic rail runs at the given
// supply voltage — the voltage half of corner notation like "100°C@0.8V".
// The BRAM keeps its own low-power rail.
func (c Config) AtVdd(vdd float64) (Config, error) {
	kit, err := c.Kit.AtVdd(vdd)
	if err != nil {
		return Config{}, err
	}
	out := c
	out.Kit = kit
	out.Arch.Vdd = vdd
	return out, nil
}

// DeviceLibrary returns a corner-device cache for architecture exploration.
func (c Config) DeviceLibrary() *thermarch.Library {
	return thermarch.NewLibrary(c.Kit, c.Arch)
}

// Benchmarks lists the 19 VTR-style workload profiles at full scale.
func Benchmarks() []BenchmarkProfile { return bench.VTR }

// GenerateBenchmark builds the named benchmark netlist at the given scale
// (1.0 = the published size; the experiment harness uses 1/16).
func GenerateBenchmark(name string, scale float64) (*Netlist, error) {
	p, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return bench.Generate(p.Scaled(scale), bench.SeedFor(name))
}

// BenchmarkFlowOptions returns the implementation settings the named
// benchmark is built with: the placement seed derived from its name and
// its profile's primary-input activity. The command-line tools start from
// the same recipe, so at the same scale, channel width and placement effort
// Implement reproduces their numbers for the design.
func BenchmarkFlowOptions(name string) (FlowOptions, error) {
	p, err := bench.ByName(name)
	if err != nil {
		return FlowOptions{}, err
	}
	return flow.BenchOptions(p), nil
}

// Implement runs activity estimation, packing, placement, routing, and
// model assembly for a netlist on a device.
func Implement(nl *Netlist, dev *Device, opts FlowOptions) (*Implementation, error) {
	return flow.Implement(nl, dev, opts)
}

// GuardbandOptions returns the paper's Algorithm 1 settings for an ambient
// temperature (T_worst = 100 °C baseline, δT = 0.5 °C).
func GuardbandOptions(ambientC float64) guardband.Options {
	return guardband.DefaultOptions(ambientC)
}

// SelectCorner ranks candidate sizing corners by expected delay (Eq. 1)
// over a uniform field temperature range — the thermal-aware architecture
// step of Section III-C.
func (c Config) SelectCorner(tMinC, tMaxC float64, candidates []float64) ([]CornerChoice, error) {
	return c.DeviceLibrary().SelectCorner(tMinC, tMaxC, candidates)
}

// StandardGrades returns the thermal device-grade menu used in the
// experiments.
func StandardGrades() []Grade { return thermarch.StandardGrades() }

// GradeFor picks the standard grade best matching a field range.
func GradeFor(tMinC, tMaxC float64) Grade { return thermarch.GradeFor(tMinC, tMaxC) }
