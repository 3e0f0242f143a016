package stream

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/util"
)

func TestVectorAccumulation(t *testing.T) {
	s := New(16)
	s.Add(3, 5)
	s.Add(3, -2)
	s.Add(7, 1)
	s.Add(7, -1)
	v := s.Vector()
	if v[3] != 3 {
		t.Errorf("v[3] = %d, want 3", v[3])
	}
	if _, ok := v[7]; ok {
		t.Errorf("v[7] should be absent after cancellation")
	}
	if v.F0() != 1 {
		t.Errorf("F0 = %d, want 1", v.F0())
	}
}

func TestAddPanicsOutsideDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-domain item")
		}
	}()
	s := New(4)
	s.Add(4, 1)
}

func TestMoments(t *testing.T) {
	v := Vector{1: 3, 2: -4}
	if got := v.F2(); got != 25 {
		t.Errorf("F2 = %v, want 25", got)
	}
	if got := v.F1(); got != 7 {
		t.Errorf("F1 = %v, want 7", got)
	}
	if got := v.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v, want 4", got)
	}
}

func TestTurnstileBoundCheck(t *testing.T) {
	s := New(8)
	s.Add(1, 5)
	s.Add(1, -3)
	if err := s.CheckTurnstileBound(5); err != nil {
		t.Errorf("unexpected violation: %v", err)
	}
	if err := s.CheckTurnstileBound(4); err == nil {
		t.Error("expected violation of M=4 (prefix reaches 5)")
	}
}

// TestTurnstileBoundNamesAMinInt64Prefix: a frequency of math.MinInt64 has
// no int64 magnitude, and the check still returns its error naming the
// first violating prefix instead of panicking (ROADMAP item 8).
func TestTurnstileBoundNamesAMinInt64Prefix(t *testing.T) {
	s := New(8)
	s.Add(3, 1)
	s.Add(2, math.MinInt64)
	err := s.CheckTurnstileBound(1 << 40)
	if err == nil || !strings.Contains(err.Error(), "prefix 2 ") {
		t.Errorf("CheckTurnstileBound = %v, want an error naming prefix 2", err)
	}
	if got := s.MaxAbsFrequency(); got != math.MaxInt64 {
		t.Errorf("MaxAbsFrequency = %d, want the saturated %d", got, int64(math.MaxInt64))
	}
}

func TestMaxAbsFrequencyTracksPrefixes(t *testing.T) {
	s := New(8)
	s.Add(1, 7)
	s.Add(1, -7) // final freq 0, but prefix reached 7
	if got := s.MaxAbsFrequency(); got != 7 {
		t.Errorf("MaxAbsFrequency = %d, want 7", got)
	}
}

func TestFromVectorRoundTrip(t *testing.T) {
	f := func(raw []int8) bool {
		v := make(Vector)
		for i, d := range raw {
			if d != 0 {
				v[uint64(i)] = int64(d)
			}
		}
		s := FromVector(uint64(len(raw)+1), v)
		got := s.Vector()
		if len(got) != len(v) {
			return false
		}
		for k, c := range v {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSubVector(t *testing.T) {
	u := Vector{1: 5, 2: 3}
	w := Vector{1: 5, 3: -2}
	d := Sub(u, w)
	if d[1] != 0 && len(d) != 2 {
		t.Errorf("Sub: got %v", d)
	}
	if d[2] != 3 || d[3] != 2 {
		t.Errorf("Sub: got %v, want {2:3, 3:2}", d)
	}
	if _, ok := d[1]; ok {
		t.Errorf("Sub: coordinate 1 should cancel, got %v", d)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	cfg := GenConfig{N: 1 << 10, M: 100, Seed: 5}
	a := Zipf(cfg, 50, 1.2)
	b := Zipf(cfg, 50, 1.2)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Updates() {
		if a.Updates()[i] != b.Updates()[i] {
			t.Fatalf("update %d differs", i)
		}
	}
}

func TestZipfShape(t *testing.T) {
	cfg := GenConfig{N: 1 << 12, M: 1000, Seed: 9}
	s := Zipf(cfg, 100, 1.0)
	v := s.Vector()
	if v.F0() != 100 {
		t.Fatalf("F0 = %d, want 100", v.F0())
	}
	if got := v.MaxAbs(); got != 1000 {
		t.Errorf("top frequency %d, want 1000", got)
	}
	if err := s.CheckTurnstileBound(1001); err != nil {
		t.Errorf("turnstile bound violated: %v", err)
	}
}

func TestUniformFrequenciesInRange(t *testing.T) {
	cfg := GenConfig{N: 1 << 12, M: 64, Seed: 21}
	s := Uniform(cfg, 200)
	v := s.Vector()
	if v.F0() != 200 {
		t.Fatalf("F0 = %d, want 200", v.F0())
	}
	for it, f := range v {
		if f < 1 || f > 64 {
			t.Errorf("item %d has frequency %d outside [1, 64]", it, f)
		}
	}
}

func TestPlantedHeavy(t *testing.T) {
	cfg := GenConfig{N: 1 << 12, M: 1 << 20, Seed: 33}
	s, heavy := PlantedHeavy(cfg, 50, 10, 5000)
	v := s.Vector()
	if v[heavy] != 5000 {
		t.Errorf("heavy frequency %d, want 5000", v[heavy])
	}
	light := 0
	for it, f := range v {
		if it != heavy {
			if f != 10 {
				t.Errorf("light item %d has frequency %d, want 10", it, f)
			}
			light++
		}
	}
	if light != 50 {
		t.Errorf("light count %d, want 50", light)
	}
}

func TestPlantedFrequencies(t *testing.T) {
	cfg := GenConfig{N: 1 << 14, M: 1 << 20, Seed: 40}
	counts := map[int64]int{3: 10, 100: 2, -7: 4}
	s, assign := PlantedFrequencies(cfg, counts)
	v := s.Vector()
	for f, items := range assign {
		for _, it := range items {
			if v[it] != f {
				t.Errorf("item %d has frequency %d, want %d", it, v[it], f)
			}
		}
	}
	if v.F0() != 16 {
		t.Errorf("F0 = %d, want 16", v.F0())
	}
}

func TestIIDSamples(t *testing.T) {
	cfg := GenConfig{N: 256, M: 10, Seed: 50}
	s := IIDSamples(cfg, func(rng *util.SplitMix64) int64 { return 1 + rng.Int63n(3) })
	v := s.Vector()
	if v.F0() != 256 {
		t.Fatalf("F0 = %d, want 256 (every coordinate sampled >= 1)", v.F0())
	}
	for it, f := range v {
		if f < 1 || f > 3 {
			t.Errorf("coordinate %d = %d outside [1,3]", it, f)
		}
	}
	if !s.InsertionOnly() {
		t.Error("IID sample stream should be insertion-only")
	}
}

func TestConcatAndClone(t *testing.T) {
	a := New(8)
	a.Add(1, 2)
	b := New(8)
	b.Add(2, 3)
	c := a.Clone()
	c.Concat(b)
	if a.Len() != 1 {
		t.Errorf("Clone did not isolate: a.Len() = %d", a.Len())
	}
	v := c.Vector()
	if v[1] != 2 || v[2] != 3 {
		t.Errorf("Concat result %v", v)
	}
}
