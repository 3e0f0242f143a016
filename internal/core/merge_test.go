package core

import (
	"testing"

	"repro/internal/gfunc"
	"repro/internal/util"
)

func TestShardAndMergeMatchesSinglePass(t *testing.T) {
	g := gfunc.F2Func()
	for _, shards := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 3; seed++ {
			s := zipfStream(seed)
			opts := Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 777, Lambda: 1.0 / 16}

			single := NewOnePass(g, opts)
			single.Process(s)

			// Round-robin partition: one item's updates land on several
			// shards, which hash routing (the sharded kind) never does.
			workers := make([]*OnePassEstimator, shards)
			for i := range workers {
				workers[i] = NewOnePass(g, opts)
			}
			for i, u := range s.Updates() {
				workers[i%shards].Update(u.Item, u.Delta)
			}
			merged := workers[0]
			for _, w := range workers[1:] {
				if err := merged.Merge(w); err != nil {
					t.Fatalf("shards=%d seed=%d: %v", shards, seed, err)
				}
			}

			a, b := single.Estimate(), merged.Estimate()
			// Same seed => same hash functions => identical counters; the
			// only permissible difference is top-k tie ordering. Estimates
			// must agree to well under the accuracy target.
			if util.RelErr(b, a) > 0.05 {
				t.Errorf("shards=%d seed=%d: merged %.6g vs single %.6g",
					shards, seed, b, a)
			}
			exact := NewExact(g)
			exact.Process(s)
			if err := util.RelErr(b, exact.Estimate()); err > 0.3 {
				t.Errorf("shards=%d seed=%d: merged rel err %.3f vs exact", shards, seed, err)
			}
		}
	}
}

func TestMergeRejectsMismatchedConfig(t *testing.T) {
	g := gfunc.F2Func()
	a := NewOnePass(g, Options{N: 1 << 10, M: 1 << 8, Seed: 1, Lambda: 1.0 / 8})
	b := NewOnePass(g, Options{N: 1 << 10, M: 1 << 8, Seed: 1, Lambda: 1.0 / 16})
	if err := a.Merge(b); err == nil {
		t.Error("expected merge rejection for mismatched lambda (different dims)")
	}
}

func TestDistributedTurnstileCancellation(t *testing.T) {
	// An item inserted on one shard and deleted on another must cancel in
	// the merged sketch — the defining property of linear sketches.
	g := gfunc.F2Func()
	opts := Options{N: 1 << 10, M: 1 << 8, Eps: 0.25, Seed: 5, Lambda: 1.0 / 8}
	a := NewOnePass(g, opts)
	b := NewOnePass(g, opts)
	a.Update(42, 100)
	a.Update(7, 30)
	b.Update(42, -100) // cancels on merge
	b.Update(9, 4)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.Estimate()
	want := float64(30*30 + 4*4)
	if util.RelErr(got, want) > 0.1 {
		t.Errorf("merged estimate %.4g, want %.4g (cancellation failed)", got, want)
	}
}
