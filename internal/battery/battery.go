// Package battery models the energy reservoir the paper's whole optimization
// exists to protect: mobile devices "are energy constrained [60], so it is
// necessary to optimize energy efficiency of the DNN inference". It provides
// a simple coulomb-counting battery with a nominal voltage and drain
// accounting — used by the day-in-the-life example to translate
// per-inference joules into state of charge.
package battery

import (
	"errors"
	"fmt"
)

// Battery is a coulomb-counting energy reservoir. The zero value is unusable;
// construct with New.
type Battery struct {
	capacityJ float64
	remaining float64
}

// New creates a battery from its datasheet rating: capacity in mAh and
// nominal voltage in volts (a phone's 3000 mAh at 3.85 V stores ~41.6 kJ).
func New(capacityMAh, nominalV float64) (*Battery, error) {
	if capacityMAh <= 0 || nominalV <= 0 {
		return nil, errors.New("battery: capacity and voltage must be positive")
	}
	capJ := capacityMAh / 1000 * 3600 * nominalV
	return &Battery{capacityJ: capJ, remaining: capJ}, nil
}

// CapacityJ returns the full capacity in joules.
func (b *Battery) CapacityJ() float64 { return b.capacityJ }

// SoC returns the state of charge in [0,1].
func (b *Battery) SoC() float64 {
	if b.capacityJ == 0 {
		return 0
	}
	return b.remaining / b.capacityJ
}

// Drain removes energy (joules). It returns an error for negative amounts;
// draining past empty clamps at zero and reports ErrEmpty.
func (b *Battery) Drain(joules float64) error {
	if joules < 0 {
		return errors.New("battery: negative drain")
	}
	b.remaining -= joules
	if b.remaining <= 0 {
		b.remaining = 0
		return ErrEmpty
	}
	return nil
}

// ErrEmpty is reported by Drain when the battery hits zero.
var ErrEmpty = errors.New("battery: empty")

// String renders the state of charge.
func (b *Battery) String() string {
	return fmt.Sprintf("battery %.0f%% (%.1f of %.1f kJ)", b.SoC()*100, b.remaining/1e3, b.capacityJ/1e3)
}
