package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stream"
	"repro/internal/util"
)

func testVector(seed uint64, items int, m int64) stream.Vector {
	rng := util.NewSplitMix64(seed)
	v := make(stream.Vector, items)
	for len(v) < items {
		it := rng.Uint64n(1 << 20)
		f := rng.Int63n(2*m+1) - m
		if f != 0 {
			v[it] = f
		}
	}
	return v
}

func feed(cs interface{ Update(uint64, int64) }, v stream.Vector) {
	for it, f := range v {
		// split into two updates to exercise the turnstile path
		cs.Update(it, f/2)
		cs.Update(it, f-f/2)
	}
}

func TestCountSketchPointQueryGuarantee(t *testing.T) {
	// §3.1: with b buckets, |v̂_i - v_i| <= 2 sqrt(F2/b) for all i with
	// probability 1-δ. Check the 99th percentile of errors across items.
	v := testVector(1, 500, 1000)
	f2 := v.F2()
	for _, b := range []uint64{256, 1024, 4096} {
		cs := NewCountSketch(7, b, util.NewSplitMix64(2))
		feed(cs, v)
		bound := 2 * math.Sqrt(f2/float64(b))
		bad := 0
		for it, f := range v {
			if math.Abs(float64(cs.Estimate(it)-f)) > bound {
				bad++
			}
		}
		if frac := float64(bad) / float64(len(v)); frac > 0.02 {
			t.Errorf("b=%d: %.1f%% of items exceed the error bound %v", b, 100*frac, bound)
		}
	}
}

func TestCountSketchErrorShrinksWithWidth(t *testing.T) {
	v := testVector(3, 800, 1000)
	var prev float64 = math.Inf(1)
	for _, b := range []uint64{64, 512, 4096} {
		cs := NewCountSketch(7, b, util.NewSplitMix64(4))
		feed(cs, v)
		var sum float64
		for it, f := range v {
			sum += math.Abs(float64(cs.Estimate(it) - f))
		}
		avg := sum / float64(len(v))
		if avg > prev {
			t.Errorf("mean error grew from %.2f to %.2f when width increased to %d", prev, avg, b)
		}
		prev = avg
	}
}

func TestCountSketchLinearity(t *testing.T) {
	// Sketch(u) merged with Sketch(w) (same seed) equals Sketch(u + w).
	u := testVector(5, 100, 100)
	w := testVector(6, 100, 100)
	a := NewCountSketch(5, 256, util.NewSplitMix64(7))
	b := NewCountSketch(5, 256, util.NewSplitMix64(7))
	c := NewCountSketch(5, 256, util.NewSplitMix64(7))
	feed(a, u)
	feed(b, w)
	feed(c, u)
	feed(c, w)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	f := func(x uint64) bool { return a.Estimate(x) == c.Estimate(x) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountSketchMergeDimensionMismatch(t *testing.T) {
	a := NewCountSketch(5, 256, util.NewSplitMix64(1))
	b := NewCountSketch(5, 128, util.NewSplitMix64(1))
	if err := a.Merge(b); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestCountSketchTopKFindsHeavy(t *testing.T) {
	// Plant 5 items far above the noise floor; TopK must surface all.
	v := testVector(8, 300, 50)
	heavies := []uint64{1 << 21, 1<<21 + 1, 1<<21 + 2, 1<<21 + 3, 1<<21 + 4}
	for i, h := range heavies {
		v[h] = int64(5000 + 100*i)
	}
	cs := NewCountSketchTopK(7, 2048, 16, util.NewSplitMix64(9))
	feed(cs, v)
	top := cs.TopK()
	found := make(map[uint64]bool)
	for _, c := range top {
		found[c.Item] = true
	}
	for _, h := range heavies {
		if !found[h] {
			t.Errorf("heavy item %d missing from top-k", h)
		}
	}
}

func TestCountSketchEstimateF2(t *testing.T) {
	v := testVector(10, 600, 500)
	cs := NewCountSketch(9, 4096, util.NewSplitMix64(11))
	feed(cs, v)
	got := cs.EstimateF2()
	want := v.F2()
	if util.RelErr(got, want) > 0.15 {
		t.Errorf("row-norm F2 estimate %.4g vs %.4g (err %.3f)", got, want, util.RelErr(got, want))
	}
}

func TestAMSEstimate(t *testing.T) {
	v := testVector(12, 400, 300)
	a := NewAMS(9, 64, util.NewSplitMix64(13))
	feed(a, v)
	if err := util.RelErr(a.EstimateF2(), v.F2()); err > 0.3 {
		t.Errorf("AMS F2 error %.3f > 0.3", err)
	}
}

func TestAMSMatchesCountSketchRowNorm(t *testing.T) {
	// The two F2 estimators must agree within their tolerances: they
	// estimate the same quantity.
	v := testVector(14, 500, 200)
	a := NewAMS(9, 64, util.NewSplitMix64(15))
	cs := NewCountSketch(9, 2048, util.NewSplitMix64(16))
	feed(a, v)
	feed(cs, v)
	if util.RelErr(a.EstimateF2(), cs.EstimateF2()) > 0.5 {
		t.Errorf("AMS %.4g vs CountSketch row-norm %.4g diverge",
			a.EstimateF2(), cs.EstimateF2())
	}
}

func TestAMSForErrorSizing(t *testing.T) {
	a := NewAMSForError(0.2, 0.1, util.NewSplitMix64(17))
	if a.SpaceBytes() <= 0 {
		t.Error("sized AMS has no space")
	}
	v := testVector(18, 300, 100)
	feed(a, v)
	if err := util.RelErr(a.EstimateF2(), v.F2()); err > 0.25 {
		t.Errorf("sized AMS error %.3f > 0.25 (target 0.2)", err)
	}
}

func TestTopTrackerEvictsSmallest(t *testing.T) {
	tr := newTopTracker(3)
	tr.offer(1, 10)
	tr.offer(2, 20)
	tr.offer(3, 30)
	tr.offer(4, 5) // must not evict anything
	items := tr.items()
	if len(items) != 3 {
		t.Fatalf("tracker holds %d items, want 3", len(items))
	}
	for _, it := range items {
		if it == 4 {
			t.Error("item 4 (score 5) should not have been admitted")
		}
	}
	tr.offer(5, 40) // evicts item 1 (score 10)
	for _, it := range tr.items() {
		if it == 1 {
			t.Error("item 1 should have been evicted")
		}
	}
}

func TestTopTrackerUpdatesInPlace(t *testing.T) {
	tr := newTopTracker(2)
	tr.offer(1, 10)
	tr.offer(2, 20)
	tr.offer(1, 50) // item 1 grows
	tr.offer(3, 15) // evicts item 2? no: min is now 20 -> evicted item is 2 only if 15 > 20; it is not
	items := tr.items()
	has := map[uint64]bool{}
	for _, it := range items {
		has[it] = true
	}
	if !has[1] || !has[2] || has[3] {
		t.Errorf("tracker contents %v, want {1, 2}", items)
	}
}

func TestEstimateMeanUnbiasedDirection(t *testing.T) {
	// Mean estimator should roughly agree with the median for a strongly
	// heavy item.
	cs := NewCountSketch(9, 1024, util.NewSplitMix64(23))
	cs.Update(42, 100000)
	v := testVector(24, 200, 50)
	feed(cs, v)
	if math.Abs(cs.EstimateMean(42)-100000) > 5000 {
		t.Errorf("mean estimate %v too far from 100000", cs.EstimateMean(42))
	}
	if math.Abs(float64(cs.Estimate(42))-100000) > 5000 {
		t.Errorf("median estimate %v too far from 100000", cs.Estimate(42))
	}
}
