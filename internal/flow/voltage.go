package flow

// voltage.go threads per-Vdd model derivation through the flow: the
// min-energy guardband objective probes many candidate rails against ONE
// routed implementation, so re-deriving must touch only the analysis models
// (STA, power, thermal) — never packing, placement, or routing — and
// repeated probes of the same rail (bisections at neighboring ambients walk
// the same dyadic voltage grid) must pay the device re-characterization
// once.

import (
	"fmt"
	"sync"

	"tafpga/internal/guardband"
)

// AtVdd re-characterizes the implementation at another core supply on the
// same placement and routing: the device re-derives its tables via
// coffe.Device.AtVdd (fixed silicon, classified rejection of non-conducting
// rails) and the three analysis models are reassembled over the shared
// physical result. The thermal model is rebuilt too — its calibration
// against the base leakage power moves with the rail.
func (im *Implementation) AtVdd(vdd float64) (*Implementation, error) {
	dev, err := im.Device.AtVdd(vdd)
	if err != nil {
		return nil, fmt.Errorf("flow: rail %.3f V: %w", vdd, err)
	}
	return assemble(*im, dev)
}

// VddLab memoizes per-rail re-derivations of one implementation, so a
// multi-ambient min-energy sweep shares every probe's device tables and
// models instead of rebuilding them per ambient. Safe for concurrent use.
type VddLab struct {
	base *Implementation

	mu    sync.Mutex
	byVdd map[float64]*Implementation
}

// NewVddLab returns a lab over the implementation's current rail.
func NewVddLab(im *Implementation) *VddLab {
	return &VddLab{base: im, byVdd: map[float64]*Implementation{}}
}

// NominalVdd returns the rail the base implementation was characterized at.
func (l *VddLab) NominalVdd() float64 { return l.base.Device.Kit.Buf.Vdd }

// At returns the implementation re-characterized at the given rail,
// memoized. The nominal rail returns the base implementation itself.
// Rejections (non-conducting rails) are not memoized — they fail before any
// table is built, so retrying them is cheap.
func (l *VddLab) At(vdd float64) (*Implementation, error) {
	if vdd == l.NominalVdd() {
		return l.base, nil
	}
	l.mu.Lock()
	if im, ok := l.byVdd[vdd]; ok {
		l.mu.Unlock()
		return im, nil
	}
	l.mu.Unlock()
	im, err := l.base.AtVdd(vdd)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	// A concurrent deriver may have won the race; keep the first entry so
	// every caller sees one model set per rail.
	if prev, ok := l.byVdd[vdd]; ok {
		im = prev
	} else {
		l.byVdd[vdd] = im
	}
	l.mu.Unlock()
	return im, nil
}

// MinEnergy runs the min-energy guardband objective (guardband.RunEnergy)
// against the lab's implementation: opts.NominalVddV and opts.ModelsAt are
// filled from the lab, and every candidate rail is additionally validated
// for conduction at the run's ambient — the coldest temperature any tile
// sees — so a cold-corner rail surfaces as a classified search bound.
func (l *VddLab) MinEnergy(opts guardband.EnergyOptions) (*guardband.EnergyResult, error) {
	opts.NominalVddV = l.NominalVdd()
	ambientC := opts.AmbientC
	opts.ModelsAt = func(vdd float64) (guardband.EnergyModels, error) {
		v, err := l.At(vdd)
		if err != nil {
			return guardband.EnergyModels{}, err
		}
		if err := v.Device.Kit.OperableAt(ambientC); err != nil {
			return guardband.EnergyModels{}, err
		}
		return guardband.EnergyModels{Timing: v.Timing, Power: v.Power, Thermal: v.Thermal}, nil
	}
	return guardband.RunEnergy(opts)
}
