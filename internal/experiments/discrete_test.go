package experiments

import (
	"testing"
	"testing/quick"

	"repro/internal/util"
)

func TestNewValidates(t *testing.T) {
	for _, bad := range [][]uint64{
		{1, 8},       // g(0) != 0
		{0, 7},       // g(1) != M'
		{0, 8, 0, 3}, // zero value at x=2
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", bad)
				}
			}()
			newDiscrete(bad, 8)
		}()
	}
	newDiscrete([]uint64{0, 8, 3, 5}, 8) // valid
}

func TestInTn(t *testing.T) {
	// logN = 4, M' = 64: floor is 16.
	f := newDiscrete([]uint64{0, 64, 20, 16}, 64)
	if !f.inTn(4) {
		t.Error("all values >= 16 should be in Tn")
	}
	g := newDiscrete([]uint64{0, 64, 15, 16}, 64)
	if g.inTn(4) {
		t.Error("value 15 < 16 should be outside Tn")
	}
}

func TestInBnNeedsDrop(t *testing.T) {
	// logN = 2: drop threshold 2^8 = 256. A flat function has no drop.
	flat := newDiscrete([]uint64{0, 300, 300, 300, 300}, 300)
	if flat.inBn(2) {
		t.Error("flat function cannot be in Bn (no drop)")
	}
}

func TestInBnNearRepeatRequired(t *testing.T) {
	// logN = 2: drop 256, rel 1/4. g = [0, 1024, 1, 1024, 1, 1024, ...]:
	// period-2 structure where x with big value and y = 2 nearly repeats:
	// g(x) vs g(x±2) equal. Pairs (x odd big, y even small): |y-x| odd ->
	// big value too. Check it lands in Bn.
	vals := []uint64{0, 1024, 1, 1024, 1, 1024, 1, 1024, 1}
	f := newDiscrete(vals, 1024)
	if !f.inBn(2) {
		t.Error("periodic big/small alternation should be Bn-like")
	}
	// Break the repetition at one point: now a constrained pair fails.
	vals2 := append([]uint64(nil), vals...)
	vals2[7] = 50 // g(7) no longer ~ g(5)
	g := newDiscrete(vals2, 1024)
	if g.inBn(2) {
		t.Error("broken repetition should leave Bn")
	}
}

func TestRandomFunctionsAlmostNeverBn(t *testing.T) {
	// Theorem 57's empirical face: random members of GD are essentially
	// never nearly periodic, while a constant fraction is in Tn.
	rng := util.NewSplitMix64(11)
	bn, tn := countDiscrete(16, 64, 2.5, 3000, rng)
	if bn > 0 {
		t.Errorf("found %d Bn members among 3000 random functions; expected ~0", bn)
	}
	if tn == 0 {
		t.Error("Tn fraction should be positive (Lemma 59 family is large)")
	}
}

func TestTheoremBoundGoesNegative(t *testing.T) {
	// The log2 bound on |Bn|/|Tn| must decrease (toward -inf) as M grows
	// with n = 2^(logN) fixed large enough.
	prev := theoremBoundLogRatio(64, 1<<20, 64)
	for _, m := range []int{128, 256, 512} {
		cur := theoremBoundLogRatio(m, 1<<20, 64)
		if cur >= prev {
			t.Errorf("bound did not decrease at M=%d: %v >= %v", m, cur, prev)
		}
		prev = cur
	}
	if prev >= 0 {
		t.Errorf("bound at M=512 should be well below 0, got %v", prev)
	}
}

func TestDistinctPairMatchingValuesDistinct(t *testing.T) {
	f := func(raw []uint16, j16 uint16) bool {
		j := uint64(j16%1024) + 1
		var s []uint64
		for _, r := range raw {
			s = append(s, uint64(r%2048)+1)
		}
		w := distinctPairMatching(s, j)
		seen := make(map[uint64]bool)
		for _, p := range w {
			if seen[p.I] || seen[p.D] || p.I == p.D {
				return false
			}
			seen[p.I] = true
			seen[p.D] = true
			// the pair really is (i, |i-j|)
			var d uint64
			if p.I > j {
				d = p.I - j
			} else {
				d = j - p.I
			}
			if d != p.D {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistinctPairMatchingSizeBound(t *testing.T) {
	// Lemma 61: |W| >= |S|/4 - 1 (distinct S elements, excluding j, j/2).
	rng := util.NewSplitMix64(17)
	for trial := 0; trial < 200; trial++ {
		j := rng.Uint64n(1<<12) + 1
		size := int(rng.Uint64n(200)) + 4
		set := make(map[uint64]struct{}, size)
		for len(set) < size {
			set[rng.Uint64n(1<<13)+1] = struct{}{}
		}
		var s []uint64
		for v := range set {
			s = append(s, v)
		}
		w := distinctPairMatching(s, j)
		if len(w) < len(s)/4-1 {
			t.Fatalf("matching size %d < |S|/4-1 = %d (|S|=%d, j=%d)",
				len(w), len(s)/4-1, len(s), j)
		}
	}
}
