package heavy

import (
	"math"
	"testing"
	"time"

	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

// skewedStream returns a zipfian stream plus its frequency map.
func skewedStream(seed uint64) (*stream.Stream, map[uint64]int64) {
	s := stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 300, 1.2)
	return s, s.Vector()
}

func TestExactHeavyDefinition(t *testing.T) {
	g := gfunc.F2Func()
	freqs := map[uint64]int64{1: 100, 2: 3, 3: 2, 4: -1}
	// g-values: 10000, 9, 4, 1; total = 10014.
	cover := ExactHeavy(g, 0.5, freqs)
	if len(cover) != 1 || cover[0].Item != 1 {
		t.Fatalf("cover = %+v, want only item 1", cover)
	}
	// Lower the bar so item 2 qualifies: 9 >= λ(10014-9) needs λ <= 9e-4.
	cover = ExactHeavy(g, 0.0008, freqs)
	if !cover.Contains(1) || !cover.Contains(2) {
		t.Errorf("cover = %+v, want items 1 and 2", cover)
	}
}

// TestOnePassCoverFindsExactHeavy holds Algorithm 2 to Definition 12 at
// the rate it is promised at, in the referee's form: over 100 seeded
// (stream, sketch) pairs at δ = 0.1, H — every (g, λ)-heavy hitter of
// ExactHeavy in the cover with its weight in 1 ± ε — and the aggregate
// form of D — H, and Σ|w − g(v)| over the cover within ε of the stream's
// g-SUM, which is all Theorem 13's sum takes from a cover (EXPERIMENTS.md,
// "Spending the ledger, round 4") — must each reach the lower
// Bin(100, 0.9) quantile at 10^−6. The per-entry form of D, every cover
// entry in 1 ± ε, is recorded, not held to the rate: it is what moved
// when the sizing did (the entries it loses are frequency-2 and -3 items
// read one unit off, see OnePass.ErrorWindow), and the counts at sizing
// v2 and at the shipped one are constants of the commit.
func TestOnePassCoverFindsExactHeavy(t *testing.T) {
	const (
		seeds       = 100
		lambda, eps = 0.05, 0.25
		delta       = 0.1
	)
	g := gfunc.F2Func()
	h := gfunc.MeasureEnvelope(g, 1<<10).H()
	floor := 0 // the lower Bin(seeds, 1 − δ) quantile at 10^−6, as the referee's floors are
	for 1-BinomialTail(seeds, floor+1, 1-delta) <= 1e-6 {
		floor++
	}
	for _, tc := range []struct {
		sizing   string
		perEntry int // seeds on which every cover entry is in 1 ± ε
	}{
		{"v2", 99},  // ⌈2 ln(2/0.05)⌉ made odd = 9 rows × 4096, tracker 481
		{"v3", 100}, // 7 × 4096, tracker 481
	} {
		restore := func() {}
		if tc.sizing == "v2" {
			restore = SetSizing(9, 1, 2)
		}
		var hits [3]int
		for seed := uint64(1); seed <= seeds; seed++ {
			s, freqs := skewedStream(seed)
			op := NewOnePass(OnePassConfig{G: g, Lambda: lambda, Eps: eps, Delta: delta, H: h},
				util.NewSplitMix64(seed*31))
			s.Each(func(u stream.Update) { op.Update(u.Item, u.Delta) })
			for ev, ok := range CoverEvents(g, op.Cover(), ExactHeavy(g, lambda, freqs), func(it uint64) int64 { return freqs[it] }, eps, GSumExact(g, freqs)) {
				if ok {
					hits[ev]++
				}
			}
		}
		heavyOK, aggOK, entryOK := hits[EvH], hits[EvAgg], hits[EvD]
		restore()
		t.Logf("sizing %s: H %d, aggregate D %d, per-entry D %d of %d seeds (floor %d)", tc.sizing, heavyOK, aggOK, entryOK, seeds, floor)
		if heavyOK < floor || aggOK < floor {
			t.Errorf("sizing %s: H on %d and aggregate D on %d of %d seeds; Bin(%d, %v) is below %d with probability 1e-6",
				tc.sizing, heavyOK, aggOK, seeds, seeds, 1-delta, floor)
		}
		if entryOK != tc.perEntry {
			t.Errorf("sizing %s: every cover entry in 1 ± ε on %d of %d seeds, recorded %d: something changed what the sketch computes",
				tc.sizing, entryOK, seeds, tc.perEntry)
		}
	}
}

func TestTwoPassCoverExactWeights(t *testing.T) {
	g := gfunc.SinSqrtX2() // unpredictable: 1-pass pruning would drop items
	for seed := uint64(1); seed <= 3; seed++ {
		s, freqs := skewedStream(seed)
		lambda := 0.05
		h := gfunc.MeasureEnvelope(g, 1<<10).H()
		cover := RunTwoPass(TwoPassConfig{G: g, Lambda: lambda, Delta: 0.1, H: h},
			util.NewSplitMix64(seed*37),
			func(fn func(item uint64, delta int64)) {
				s.Each(func(u stream.Update) { fn(u.Item, u.Delta) })
			})

		want := ExactHeavy(g, lambda, freqs)
		for _, e := range want {
			if !cover.Contains(e.Item) {
				t.Errorf("seed %d: heavy item %d missing from 2-pass cover", seed, e.Item)
			}
		}
		// Two-pass weights are exact (ε = 0).
		for _, e := range cover {
			trueW := g.Eval(uint64(util.SatAbsInt64(freqs[e.Item])))
			if e.Weight != trueW {
				t.Errorf("seed %d: item %d weight %.6g != exact %.6g",
					seed, e.Item, e.Weight, trueW)
			}
		}
	}
}

func TestOnePassPruningDropsUnstableHeavy(t *testing.T) {
	// E3's mechanism: for the unpredictable (2+sin √x)x², plant a heavy
	// item at a steep point of the oscillation with lots of tail noise so
	// the sketch cannot certify g; the pruning step must reject rather
	// than report a wrong weight. We verify the pruning branch directly
	// via stableUnder.
	g := gfunc.SinSqrtX2()
	// Find an x where g moves more than 25% within ±200 (at x ~ 10⁴ a
	// ±200 offset swings √x by ~1 radian, so the modulation moves by
	// Θ(1) while x² moves by < 1%).
	var x uint64
	for cand := uint64(10000); cand < 200000; cand += 7 {
		if !stableUnder(g, cand, 200, 0.25) {
			x = cand
			break
		}
	}
	if x == 0 {
		t.Fatal("no unstable point found for (2+sin sqrt x)x^2")
	}
	if stableUnder(g, x, 200, 0.25) {
		t.Error("stableUnder inconsistent")
	}
	// Smooth function: the same windows are stable at large x.
	if !stableUnder(gfunc.F2Func(), 100000, 200, 0.25) {
		t.Error("x² should be stable under ±200 at x=100000")
	}
}

// TestStableUnderHugeWindowTerminates: counters near 2^63 (a few thousand
// JSON deltas near 2^61 put them there) make the error window as wide as
// int64 goes, and the geometric probe must still end — it used to step by
// y += y/2 until y > window, which wraps negative past 2^62.4 and then
// never exceeds the window again, inside Cover(), under the daemon's state
// lock. 1(x>0) is stable at every scale, so it walks the whole probe; x²
// is not, and must still say so.
func TestStableUnderHugeWindowTerminates(t *testing.T) {
	for _, window := range []int64{1 << 62, 1<<62 + 1<<61, math.MaxInt64} {
		for _, tc := range []struct {
			g    gfunc.Func
			want bool
		}{{gfunc.L0(), true}, {gfunc.F2Func(), false}} {
			g := tc.g
			done := make(chan bool, 1)
			go func() { done <- stableUnder(g, 1<<20, window, 0.25) }()
			select {
			case got := <-done:
				if got != tc.want {
					t.Errorf("stableUnder(%s, 2^20, window %d) = %v, want %v", g.Name(), window, got, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("stableUnder(%s, 2^20, window %d) is still probing after 10 s", g.Name(), window)
			}
		}
	}
}

// TestErrorWindowClampsToInt64: a window past int64 is the widest window,
// not whatever the platform makes of an out-of-range conversion (amd64:
// MinInt64, which every probe loop reads as "no window").
func TestErrorWindowClampsToInt64(t *testing.T) {
	for _, tc := range []struct {
		f2tail float64
		want   int64
	}{
		{-4, 0}, {0, 0}, {15, 0}, {16, 1}, {64e6, 2000},
		{math.Ldexp(1, 128), 1 << 62},       // 2·√(2^128/2^6) = 2^62
		{math.Ldexp(1, 130), math.MaxInt64}, // 2^63: one past MaxInt64
		{math.MaxFloat64, math.MaxInt64},    //
		{math.Inf(1), math.MaxInt64},        //
		{math.NaN(), 0},                     //
	} {
		if got := windowOf(tc.f2tail, 64); got != tc.want {
			t.Errorf("windowOf(%g, 64) = %d, want %d", tc.f2tail, got, tc.want)
		}
	}
}

func TestGSumExact(t *testing.T) {
	g := gfunc.F1Func()
	freqs := map[uint64]int64{1: 2, 2: -3, 5: 4}
	if got := GSumExact(g, freqs); got != 9 {
		t.Errorf("GSumExact = %v, want 9", got)
	}
}

func TestCoverHelpers(t *testing.T) {
	c := Cover{{Item: 1, Weight: 5}, {Item: 2, Weight: 3}}
	if !c.Contains(1) || c.Contains(9) {
		t.Error("Contains wrong")
	}
	if c.WeightSum() != 8 {
		t.Errorf("WeightSum = %v, want 8", c.WeightSum())
	}
}

// TestDimsTable pins the shipped sizing: rows ⌈2 ln(1/δ)⌉, at least 5,
// made odd; buckets the power of two at or above widthFactor ·
// max(16H/λ, H/(λε²)) (at least 8); candidates ⌈2H/λ⌉ + 1. One rounding,
// upward, so a width factor never builds a narrower sketch than it names
// and factors a power of two apart never build the same one.
func TestDimsTable(t *testing.T) {
	for _, tc := range []struct {
		lambda, eps, delta, h, wf float64
		rows                      int
		buckets                   uint64
		topk                      int
	}{
		// The benchmark's level: Algorithm 2 at ε 0.25, δ 0.2 → δ/2,
		// λ 1/16 → λ/3, H 4. Sizing v2 built 7 rows of the same.
		{1.0 / 48, 0.25, 0.1, 4, 1, 5, 4096, 385},        // 3072
		{1.0 / 48, 0.25, 0.1, 4, 2, 5, 8192, 385},        // 6144
		{1.0 / 48, 0.25, 0.1, 4, 0.75, 5, 4096, 385},     // 2304: the plateau under 1 ends at 2/3
		{1.0 / 48, 0.25, 0.1, 4, 0.5, 5, 2048, 385},      // 1536
		{1.0 / 48, 0.25, 0.1, 4, 0.375, 5, 2048, 385},    // 1152
		{1.0 / 48, 0.25, 0.1, 4, 0.25, 5, 1024, 385},     // 768
		{1.0 / 48, 0.25, 0.1, 4, 0.001, 5, 8, 385},       // the floor
		{1.0 / 48, 0.25, 0.1, 0.5, 1, 5, 1024, 97},       // H below 1 is 1: 768
		{1.0 / 48, 0.1, 0.1, 4, 1, 5, 32768, 385},        // ε takes over below 1/4: 19200
		{1.0 / 48, 0.25, 0.05, 4, 1, 7, 4096, 385},       // δ 0.1 → δ/2: ⌈5.99⌉ = 6, made odd; v2 9
		{1.0 / 48, 0.25, 0.005, 4, 1, 11, 4096, 385},     // ⌈10.6⌉; v2 13
		{1.0 / 48, 0.25, 0.45, 4, 1, 5, 4096, 385},       // ⌈1.6⌉ = 2: the floor of 5
		{1.0 / 32, 1.0 / 3, 0.2, 4, 1, 5, 2048, 257},     // Algorithm 1 at the same options: λ/2, ε = 1/3, δ whole; as v2
		{1.0 / 32, 1.0 / 3, 0.2, 3.998, 1, 5, 2048, 257}, // x²'s measured envelope at M = 2^12: 2047; as v2
		{1.0 / 60, 0.25, 0.05, 4, 1, 7, 4096, 481},       // heavy_test.go's skewed stream (λ 0.05, δ 0.1): 3840; v2 9 rows
		{1, 0.25, 0.1, 1, 1, 5, 16, 3},                   // λ = 1
	} {
		rows, buckets, topk := dims(tc.lambda, tc.eps, tc.delta, tc.h, tc.wf)
		if rows != tc.rows || buckets != tc.buckets || topk != tc.topk {
			t.Errorf("dims(λ %.4g, ε %.3g, δ %v, H %v, width %v) = %d rows × %d buckets, %d candidates; want %d × %d, %d",
				tc.lambda, tc.eps, tc.delta, tc.h, tc.wf, rows, buckets, topk, tc.rows, tc.buckets, tc.topk)
		}
	}
}

func TestDimsMonotonicity(t *testing.T) {
	// Smaller λ or ε must never shrink the sketch.
	_, b1, k1 := dims(0.1, 0.25, 0.1, 4, 1)
	_, b2, k2 := dims(0.01, 0.25, 0.1, 4, 1)
	if b2 < b1 || k2 < k1 {
		t.Errorf("smaller lambda shrank dims: b %d->%d, k %d->%d", b1, b2, k1, k2)
	}
	_, b3, _ := dims(0.1, 0.05, 0.1, 4, 1)
	if b3 < b1 {
		t.Errorf("smaller eps shrank buckets: %d -> %d", b1, b3)
	}
}

func TestDimsPanicsOnBadLambda(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for lambda = 0")
		}
	}()
	dims(0, 0.1, 0.1, 1, 1)
}
