package util

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(99), NewSplitMix64(99)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewSplitMix64(1)
	f := a.Fork()
	x := f.Next()
	y := a.Next()
	if x == y {
		t.Error("fork should not mirror parent")
	}
}

func TestUint64nRange(t *testing.T) {
	rng := NewSplitMix64(5)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		return rng.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64nUniform(t *testing.T) {
	rng := NewSplitMix64(7)
	counts := make([]int, 10)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[rng.Uint64n(10)]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-trials/10) > 0.05*trials {
			t.Errorf("digit %d count %d deviates", d, c)
		}
	}
}

func TestMedians(t *testing.T) {
	if m := MedianFloat64([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := MedianFloat64([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if m := MedianInt64([]int64{5, 1, 9}); m != 5 {
		t.Errorf("int median = %v, want 5", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	MedianFloat64(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("median mutated its argument")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Errorf("p50 = %v, want 5", q)
	}
	if q := Quantile(xs, 1.0); q != 10 {
		t.Errorf("p100 = %v, want 10", q)
	}
	if q := Quantile(xs, 0.0); q != 1 {
		t.Errorf("p0 = %v, want 1", q)
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(110, 100) != 0.1 {
		t.Errorf("RelErr(110,100) = %v", RelErr(110, 100))
	}
	if RelErr(5, 0) != 5 {
		t.Errorf("RelErr(5,0) = %v, want absolute 5", RelErr(5, 0))
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[uint64]uint64{0: 1, 1: 1, 2: 2, 3: 4, 1023: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[uint64]int{1: 0, 2: 1, 3: 2, 4: 2, 1024: 10, 1025: 11}
	for in, want := range cases {
		if got := Log2Ceil(in); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestAbsMinMax(t *testing.T) {
	if SatAbsInt64(-7) != 7 || SatAbsInt64(7) != 7 {
		t.Error("SatAbsInt64 wrong")
	}
	if MaxInt64(2, 3) != 3 || MinInt64(2, 3) != 2 {
		t.Error("min/max wrong")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(100, 100.5, 0.01) {
		t.Error("100 vs 100.5 within 1%")
	}
	if AlmostEqual(100, 110, 0.01) {
		t.Error("100 vs 110 not within 1%")
	}
	if !AlmostEqual(0.001, 0.0011, 0.01) {
		t.Error("small values compare absolutely")
	}
}
