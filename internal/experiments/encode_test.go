package experiments

import (
	"testing"
	"testing/quick"

	"repro/internal/gfunc"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	p, err := newPacking(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c uint8) bool {
		digits := []uint64{uint64(a % 16), uint64(b % 16), uint64(c % 16)}
		got := p.unpack(p.pack(digits))
		for i := range digits {
			if got[i] != digits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeltaForMatchesPack(t *testing.T) {
	// Adding deltaFor(j) to a packed value increments digit j (absent
	// carries), which is exactly the b^j-copies encoding of an update.
	p, err := newPacking(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := p.pack([]uint64{3, 1, 0, 5})
	y := uint64(int64(x) + p.deltaFor(2))
	want := []uint64{3, 1, 1, 5}
	got := p.unpack(y)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after update: %v, want %v", got, want)
		}
	}
}

func TestNewPackingRejectsOverflow(t *testing.T) {
	if _, err := newPacking(1<<32, 3); err == nil {
		t.Error("expected overflow rejection")
	}
	if _, err := newPacking(1, 2); err == nil {
		t.Error("expected rejection of base 1")
	}
}

func TestInducedFunctionClassG(t *testing.T) {
	p, err := newPacking(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// g(d) = (d0 + d1)²: a smooth multivariate function.
	g := p.induced("(d0+d1)^2", func(d []uint64) float64 {
		s := float64(d[0] + d[1])
		return s * s
	})
	if err := gfunc.Validate(g, p.maxPacked()); err != nil {
		t.Error(err)
	}
}

func TestInducedHasHighLocalVariability(t *testing.T) {
	// The paper's Section 1.1.4 claim: even a smooth multivariate g
	// induces a wildly varying g' (a +1 step rolls the low digit).
	p, err := newPacking(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	induced := p.induced("(d0+4*d1)^2", func(d []uint64) float64 {
		s := float64(d[0] + 4*d[1])
		return s * s
	})
	smooth := gfunc.F2Func()
	vInduced := localVariability(induced, p.maxPacked())
	vSmooth := localVariability(smooth, p.maxPacked())
	if vInduced < 0.5 {
		t.Errorf("induced local variability %.3f, expected > 0.5", vInduced)
	}
	if vSmooth > 0.35 {
		t.Errorf("smooth x² local variability %.3f, expected small", vSmooth)
	}
	if vInduced < 2*vSmooth {
		t.Errorf("induced (%.3f) should dwarf smooth (%.3f)", vInduced, vSmooth)
	}
}

func TestMaxPacked(t *testing.T) {
	p, _ := newPacking(10, 3)
	if p.maxPacked() != 999 {
		t.Errorf("maxPacked = %d, want 999", p.maxPacked())
	}
}
