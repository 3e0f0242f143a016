package recursive

import (
	"testing"

	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/stream"
	"repro/internal/util"
)

func makeOnePassFactory(g gfunc.Func, h float64, rng *util.SplitMix64) func(int) heavy.Sketcher {
	return func(level int) heavy.Sketcher {
		return heavy.NewOnePass(heavy.OnePassConfig{
			G: g, Lambda: 0.05, Eps: 0.25, Delta: 0.1, H: h,
		}, rng.Fork())
	}
}

func TestRecursiveSketchEstimatesGSum(t *testing.T) {
	g := gfunc.F2Func()
	h := gfunc.MeasureEnvelope(g, 1<<10).H()
	for seed := uint64(1); seed <= 5; seed++ {
		s := stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 300, 1.1)
		rng := util.NewSplitMix64(seed * 11)
		sk := New(Config{N: s.N(), MakeSketcher: makeOnePassFactory(g, h, rng.Fork())}, rng.Fork())
		s.Each(func(u stream.Update) { sk.Update(u.Item, u.Delta) })
		truth := s.Vector().Sum(g.Eval)
		if err := util.RelErr(sk.Estimate(), truth); err > 0.3 {
			t.Errorf("seed %d: relative error %.3f > 0.3", seed, err)
		}
	}
}

// coverOnly is a level sketcher with a cover for its own function only.
type coverOnly struct{}

func (coverOnly) Update(uint64, int64) {}
func (coverOnly) Cover() heavy.Cover   { return nil }
func (coverOnly) SpaceBytes() int      { return 0 }

// TestEstimateForNeedsCoverFor: a post-hoc query on a stack whose levels
// cannot read a cover for another function panics instead of answering
// for the levels' own.
func TestEstimateForNeedsCoverFor(t *testing.T) {
	sk := New(Config{N: 1 << 6, Levels: 1, MakeSketcher: func(int) heavy.Sketcher { return coverOnly{} }}, util.NewSplitMix64(1))
	defer func() {
		if recover() == nil {
			t.Error("EstimateFor answered from levels without CoverFor")
		}
	}()
	sk.EstimateFor(gfunc.F1Func())
}

func TestRecursiveLevelsDefault(t *testing.T) {
	rng := util.NewSplitMix64(1)
	sk := New(Config{N: 1 << 10, MakeSketcher: makeOnePassFactory(gfunc.F1Func(), 1, rng.Fork())}, rng.Fork())
	// Trackers of 2H/(λ/3) + 1 = 121 hold U_5 (32 items expected) outright.
	if sk.Levels() != 5 {
		t.Errorf("levels = %d, want 5", sk.Levels())
	}
}

func TestCombineCoversSingleLevel(t *testing.T) {
	// One level, everything in the cover: the estimate is the exact sum.
	covers := []heavy.Cover{{{Item: 1, Weight: 5}, {Item: 2, Weight: 7}}}
	got := CombineCovers(covers, func(int, uint64) bool { panic("no levels") })
	if got != 12 {
		t.Errorf("single-level combine = %v, want 12", got)
	}
}

func TestCombineCoversDoubling(t *testing.T) {
	// Two levels: level 0 sees {a}, level 1 sees {b} where b survived
	// subsampling but a did not. Estimate = w_a + 2*(w_b - 0).
	covers := []heavy.Cover{
		{{Item: 1, Weight: 10}},
		{{Item: 2, Weight: 3}},
	}
	got := CombineCovers(covers, func(level int, item uint64) bool {
		return item == 2 // only item 2 survives into U_1
	})
	if got != 16 {
		t.Errorf("combine = %v, want 10 + 2*3 = 16", got)
	}
}

func TestCombineCoversSubtractsSurvivors(t *testing.T) {
	// Item 1 is heavy at level 0 AND survives to level 1, where it is
	// also in the cover; its weight must not be double counted.
	covers := []heavy.Cover{
		{{Item: 1, Weight: 10}},
		{{Item: 1, Weight: 10}},
	}
	got := CombineCovers(covers, func(level int, item uint64) bool { return true })
	if got != 10 {
		t.Errorf("combine = %v, want 10 (no double counting)", got)
	}
}

func TestCombineCoversClampsNegativeRemainder(t *testing.T) {
	// Deep estimate smaller than the survivor mass: the remainder term
	// would push below the certain heavy mass; it must clamp.
	covers := []heavy.Cover{
		{{Item: 1, Weight: 10}, {Item: 2, Weight: 4}},
		{}, // deeper level found nothing
	}
	got := CombineCovers(covers, func(level int, item uint64) bool { return item == 1 })
	// heavySum = 14, survivorSum = 10, est1 = 0 -> 14 + 2*(0-10) < 14 -> clamp
	if got != 14 {
		t.Errorf("combine = %v, want clamp at 14", got)
	}
}

func TestTwoPassRecursiveMatchesExact(t *testing.T) {
	g := gfunc.SinSqrtX2()
	h := gfunc.MeasureEnvelope(g, 1<<10).H()
	for seed := uint64(1); seed <= 3; seed++ {
		s := stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 300, 1.1)
		rng := util.NewSplitMix64(seed * 17)
		hhRng := rng.Fork()
		sk := NewTwoPass(TwoPassConfig{
			N: s.N(),
			MakeSketcher: func(level int) heavy.TwoPassSketcher {
				return heavy.NewTwoPass(heavy.TwoPassConfig{
					G: g, Lambda: 0.05, Delta: 0.1, H: h,
				}, hhRng.Fork())
			},
		}, rng.Fork())
		s.Each(func(u stream.Update) { sk.Pass1(u.Item, u.Delta) })
		sk.FinishPass1()
		s.Each(func(u stream.Update) { sk.Pass2(u.Item, u.Delta) })
		truth := s.Vector().Sum(g.Eval)
		if err := util.RelErr(sk.Estimate(), truth); err > 0.3 {
			t.Errorf("seed %d: 2-pass relative error %.3f > 0.3", seed, err)
		}
	}
}

func TestSpaceBytesAggregates(t *testing.T) {
	rng := util.NewSplitMix64(9)
	sk := New(Config{N: 1 << 8, MakeSketcher: makeOnePassFactory(gfunc.F1Func(), 1, rng.Fork())}, rng.Fork())
	if sk.SpaceBytes() <= 0 {
		t.Error("SpaceBytes must be positive")
	}
}

// benchLevel is the level sketcher of the repository's benchmark options
// (g = x², λ = 1/16, H = 4): 5 rows of 4096 buckets over a tracker of 385.
func benchLevel(rng *util.SplitMix64) func(int) heavy.Sketcher {
	return func(int) heavy.Sketcher {
		return heavy.NewOnePass(heavy.OnePassConfig{G: gfunc.F2Func(), Lambda: 1.0 / 16, Eps: 0.25, Delta: 0.2, H: 4}, rng.Fork())
	}
}

// feedWholeDomain gives every item of [0, n) frequency 1, in batches.
func feedWholeDomain(sk *Sketch, n uint64) {
	batch := make([]stream.Update, 0, 4096)
	for it := uint64(0); it < n; it++ {
		if batch = append(batch, stream.Update{Item: it, Delta: 1}); len(batch) == cap(batch) || it == n-1 {
			sk.UpdateBatch(batch)
			batch = batch[:0]
		}
	}
}

// TestDeepestLevelHoldsItsUniverse is the assumption Depth stops the
// recursion on, at the benchmark's options with the worst support there is
// (every one of N = 2^20 items present): the deepest level's tracker is
// below capacity, so it has seen all of its sub-universe, its error window
// is 0 and its cover is that sub-universe, item for item — Theorem 13's
// base case. Then the assumption is broken on purpose — four times the
// items through the depth that suits N — and the deepest level is an
// ordinary heavy-hitter level: a full tracker, no panic, and an estimate
// still inside ε.
func TestDeepestLevelHoldsItsUniverse(t *testing.T) {
	const n = 1 << 20
	rng := util.NewSplitMix64(7)
	sk := New(Config{N: n, MakeSketcher: benchLevel(rng.Fork())}, rng.Fork())
	if sk.Levels() != 13 {
		t.Fatalf("%d levels, want 13", sk.Levels())
	}
	feedWholeDomain(sk, n)
	deepest := sk.levels[sk.Levels()].(*heavy.OnePass)
	universe := 0
	for it := uint64(0); it < n; it++ {
		if sk.member(it, sk.Levels()) {
			universe++
		}
	}
	cover := deepest.Cover()
	if deepest.Tracked() >= deepest.Capacity() || deepest.Tracked() != universe || deepest.ErrorWindow() != 0 || len(cover) != universe {
		t.Errorf("deepest level: %d of %d tracked, error window %d, cover of %d, over a sub-universe of %d items",
			deepest.Tracked(), deepest.Capacity(), deepest.ErrorWindow(), len(cover), universe)
	}
	for _, e := range cover {
		if !sk.member(e.Item, sk.Levels()) || e.Freq != 1 {
			t.Fatalf("deepest cover holds item %d at frequency %d", e.Item, e.Freq)
		}
	}
	if err := util.RelErr(sk.Estimate(), n); err > 0.25 {
		t.Errorf("all of N present: relative error %.3f", err)
	}

	if testing.Short() {
		return
	}
	rng = util.NewSplitMix64(7)
	shallow := New(Config{N: 4 * n, Levels: 13, MakeSketcher: benchLevel(rng.Fork())}, rng.Fork())
	feedWholeDomain(shallow, 4*n)
	deepest = shallow.levels[13].(*heavy.OnePass)
	if deepest.Tracked() != deepest.Capacity() {
		t.Errorf("4N items through N's depth: deepest level tracks %d of %d, want a full tracker", deepest.Tracked(), deepest.Capacity())
	}
	if err := util.RelErr(shallow.Estimate(), 4*n); err > 0.25 {
		t.Errorf("4N items through N's depth: relative error %.3f", err)
	}
}
