package battery

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	b, err := New(3000, 3.85)
	if err != nil {
		t.Fatal(err)
	}
	// 3 Ah x 3600 s x 3.85 V = 41.58 kJ.
	if math.Abs(b.CapacityJ()-41580) > 1 {
		t.Errorf("capacity = %v J, want ~41580", b.CapacityJ())
	}
	if b.SoC() != 1 {
		t.Error("fresh battery must be full")
	}
	if _, err := New(0, 3.85); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := New(3000, -1); err == nil {
		t.Error("negative voltage should fail")
	}
}

func TestDrainAccounting(t *testing.T) {
	b, _ := New(1000, 3.6) // 12.96 kJ
	if err := b.Drain(1000); err != nil {
		t.Fatal(err)
	}
	if want := 1 - 1000/b.CapacityJ(); math.Abs(b.SoC()-want) > 1e-12 {
		t.Errorf("SoC = %v after 1 kJ, want %v", b.SoC(), want)
	}
	if err := b.Drain(-1); err == nil {
		t.Error("negative drain should fail")
	}
}

func TestDrainToEmpty(t *testing.T) {
	b, _ := New(100, 3.6) // 1296 J
	if err := b.Drain(b.CapacityJ() + 50); err != ErrEmpty {
		t.Errorf("overdrain error = %v, want ErrEmpty", err)
	}
	if b.SoC() != 0 {
		t.Errorf("SoC = %v, battery must clamp at empty", b.SoC())
	}
}

func TestString(t *testing.T) {
	b, _ := New(3000, 3.85)
	if !strings.Contains(b.String(), "100%") {
		t.Errorf("String = %q", b.String())
	}
}

func TestInvariantProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		b, err := New(2000, 3.7)
		if err != nil {
			return false
		}
		for _, r := range raw {
			_ = b.Drain(float64(r))
			if b.SoC() < 0 || b.SoC() > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
