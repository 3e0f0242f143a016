package heavy_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/stream"
	"repro/internal/util"
)

// TestFlatStreamKeepsItsWindow holds the pruning window's margin: on a
// flat stream — 2^20 items once each, nothing heavy — at half the
// shipped width (a quarter of sizing v2's), the tracked candidates are
// the largest of 2^20 noisy estimates. Subtracting all their squares
// from F̂2 left no tail there and a window of 0, so nothing was pruned
// and the estimate was lost; the fixed point (OnePass.ErrorWindow) keeps
// them in the tail. On a few seeds: the level's window is open, its cover
// is empty, and the whole stack's estimate is within ε.
func TestFlatStreamKeepsItsWindow(t *testing.T) {
	const items = 1 << 20
	g := gfunc.F2Func()
	o := frontierOptions
	o.N = 1 << 21
	o = o.WithDefaults()
	o.Envelope = core.EnvelopeFor(g, o)
	defer heavy.SetSizing(5, 0.25, 2)()
	feed := func(sink func([]stream.Update)) {
		batch := make([]stream.Update, 1<<12)
		for base := uint64(0); base < items; base += uint64(len(batch)) {
			for i := range batch {
				batch[i] = stream.Update{Item: base + uint64(i), Delta: 1}
			}
			sink(batch)
		}
	}
	exact := items * g.Eval(1)
	for seed := uint64(1); seed <= 3; seed++ {
		lv := heavy.NewOnePass(heavy.OnePassConfig{G: g, Lambda: o.Lambda, Eps: o.Eps, Delta: o.Delta, H: o.Envelope},
			util.NewSplitMix64(seed*31))
		feed(lv.UpdateBatch)
		if w := lv.ErrorWindow(); w <= 0 {
			t.Errorf("seed %d: error window %d on a flat stream, want it open", seed, w)
		}
		if c := lv.Cover(); len(c) != 0 {
			t.Errorf("seed %d: %d cover entries on a stream with nothing heavy, want none", seed, len(c))
		}
		os := o
		os.Seed = seed
		e := core.NewOnePass(g, os)
		feed(e.UpdateBatch)
		if est := e.Estimate(); math.Abs(est-exact) > o.Eps*exact {
			t.Errorf("seed %d: estimate %v, exact %v: outside ε = %v", seed, est, exact, o.Eps)
		}
	}
}
