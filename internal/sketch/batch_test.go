package sketch

import (
	"testing"

	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/xhash"
)

// mixedBatch builds a duplicate-heavy batch exercising every collapse
// path: long consecutive runs (the run-length fast path), interleaved
// repeats (the probe-table path), cancelling +δ/−δ pairs that net to
// zero, and singletons.
func mixedBatch(seed uint64, n int) []stream.Update {
	rng := util.NewSplitMix64(seed)
	batch := make([]stream.Update, 0, n)
	for len(batch) < n {
		it := rng.Uint64n(512)
		switch rng.Uint64n(4) {
		case 0: // run of the same item
			run := int(rng.Uint64n(16)) + 2
			for k := 0; k < run && len(batch) < n; k++ {
				batch = append(batch, stream.Update{Item: it, Delta: 1})
			}
		case 1: // cancelling pair: net delta zero
			batch = append(batch, stream.Update{Item: it, Delta: 3})
			if len(batch) < n {
				batch = append(batch, stream.Update{Item: it, Delta: -3})
			}
		case 2: // negative update
			batch = append(batch, stream.Update{Item: it, Delta: -1})
		default: // singleton
			batch = append(batch, stream.Update{Item: it, Delta: 1})
		}
	}
	return batch
}

// TestCollapseAggregatesExactly checks the open-addressed, run-length
// aware collapse against a straightforward map fold: same first-seen
// order, same net deltas.
func TestCollapseAggregatesExactly(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		batch := mixedBatch(seed, 3000)
		var agg Batch
		agg.aggregate(batch)

		wantDelta := make(map[uint64]int64)
		var wantOrder []uint64
		for _, u := range batch {
			if _, seen := wantDelta[u.Item]; !seen {
				wantOrder = append(wantOrder, u.Item)
			}
			wantDelta[u.Item] += u.Delta
		}
		if len(agg.items) != len(wantOrder) {
			t.Fatalf("seed %d: %d distinct items, want %d", seed, len(agg.items), len(wantOrder))
		}
		for i, it := range agg.items {
			if it != wantOrder[i] {
				t.Fatalf("seed %d: order[%d] = %d, want %d (first-seen order)", seed, i, it, wantOrder[i])
			}
			if agg.ds[i] != wantDelta[it] {
				t.Fatalf("seed %d: delta[%d] = %d, want %d", seed, agg.ds[i], i, wantDelta[it])
			}
		}
		for _, s := range agg.slots {
			if s != 0 {
				t.Fatal("aggregate left a live slot")
			}
		}
	}
}

// TestRowHashMatchesHashFamilies checks that the flattened-coefficient
// inline evaluation (rowBucketSign) reproduces the Buckets/Sign hash
// families bit for bit — the invariant that keeps wire fingerprints and
// merged estimates unchanged by the hot-path rewrite.
func TestRowHashMatchesHashFamilies(t *testing.T) {
	cs := NewCountSketch(7, 1<<10, util.NewSplitMix64(42))
	rng := util.NewSplitMix64(7)
	for i := 0; i < 5000; i++ {
		it := rng.Next()
		xp := it % xhash.MersennePrime61
		for j := 0; j < cs.rows; j++ {
			h, s := cs.rowBucketSign(j, xp)
			if want := cs.bucket[j].Hash(it); h != want {
				t.Fatalf("item %d row %d: bucket %d, want %d", it, j, h, want)
			}
			if want := cs.sign[j].Hash(it); s != want {
				t.Fatalf("item %d row %d: sign %d, want %d", it, j, s, want)
			}
		}
	}
}

// TestHashRowMatchesHashFamilies is TestRowHashMatchesHashFamilies for
// the whole kernel: scalar (rowBucketSign) and batched (hashRow: the
// four-lane walk plus its scalar tail), at the edges of the item range,
// where the bucket reduction is a mask (power-of-two b) and where it is
// a division. xhash's TestLazyKernelMatchesHash covers arbitrary
// coefficients.
func TestHashRowMatchesHashFamilies(t *testing.T) {
	const p = xhash.MersennePrime61
	edges := []uint64{0, 1, p - 1, p, p + 1, 1 << 63, 1<<64 - 1}
	for _, b := range []uint64{1, 3, 1 << 10, 4096, 4206} {
		cs := NewCountSketch(7, b, util.NewSplitMix64(42))
		rng := util.NewSplitMix64(7)
		// Every length mod 4, so each tail size follows a four-lane walk.
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 1000, 1001, 1002, 1003} {
			items := make([]uint64, n)
			xs, x2s, x3s := make([]uint64, n), make([]uint64, n), make([]uint64, n)
			for i := range items {
				if items[i] = rng.Next(); i%5 == 0 {
					items[i] = edges[rng.Uint64n(uint64(len(edges)))]
				}
				xs[i] = items[i] % p
				x2s[i], x3s[i] = xhash.Powers(xs[i])
			}
			hs, ss := make([]uint64, n), make([]int64, n)
			for j := 0; j < cs.rows; j++ {
				cs.hashRow(j, xs, x2s, x3s, hs, ss)
				for i, it := range items {
					wantH, wantS := cs.bucket[j].Hash(it), cs.sign[j].Hash(it)
					if hs[i] != wantH || ss[i] != wantS {
						t.Fatalf("b %d n %d item %d row %d: hashRow (%d, %d), want (%d, %d)",
							b, n, it, j, hs[i], ss[i], wantH, wantS)
					}
					if h, s := cs.rowBucketSign(j, xs[i]); h != wantH || s != wantS {
						t.Fatalf("b %d item %d row %d: rowBucketSign (%d, %d), want (%d, %d)",
							b, it, j, h, s, wantH, wantS)
					}
				}
			}
		}
	}
}

// TestUpdateBatchMatchesUpdateExactly feeds the same duplicate-heavy
// stream through the batch and per-update paths and requires bit-equal
// counters for every sketch type.
func TestUpdateBatchMatchesUpdateExactly(t *testing.T) {
	batch := mixedBatch(3, 6000)
	chunks := [][]stream.Update{batch[:1000], batch[1000:1003], batch[1003:4500], batch[4500:]}

	t.Run("countsketch", func(t *testing.T) {
		a := NewCountSketch(5, 1<<9, util.NewSplitMix64(9))
		b := NewCountSketch(5, 1<<9, util.NewSplitMix64(9))
		for _, c := range chunks {
			a.UpdateBatch(c)
		}
		for _, u := range batch {
			b.Update(u.Item, u.Delta)
		}
		for i, v := range a.flat {
			if v != b.flat[i] {
				t.Fatalf("counter %d: batch %d vs single %d", i, v, b.flat[i])
			}
		}
	})
	t.Run("countsketch-topk", func(t *testing.T) {
		a := NewCountSketchTopK(5, 1<<9, 32, util.NewSplitMix64(9))
		b := NewCountSketchTopK(5, 1<<9, 32, util.NewSplitMix64(9))
		for _, c := range chunks {
			a.UpdateBatch(c)
		}
		for _, u := range batch {
			b.Update(u.Item, u.Delta)
		}
		// Counters are bit-identical; the tracker is refreshed with batch
		// granularity by contract, so only counter state is compared.
		for i, v := range a.flat {
			if v != b.flat[i] {
				t.Fatalf("counter %d: batch %d vs single %d", i, v, b.flat[i])
			}
		}
	})
	t.Run("ams", func(t *testing.T) {
		a := NewAMS(7, 8, util.NewSplitMix64(9))
		b := NewAMS(7, 8, util.NewSplitMix64(9))
		for _, c := range chunks {
			a.UpdateBatch(c)
		}
		for _, u := range batch {
			b.Update(u.Item, u.Delta)
		}
		if ae, be := a.EstimateF2(), b.EstimateF2(); ae != be {
			t.Fatalf("AMS estimate: batch %v vs single %v", ae, be)
		}
	})
	t.Run("countmin", func(t *testing.T) {
		a := NewCountMin(5, 1<<9, util.NewSplitMix64(9))
		b := NewCountMin(5, 1<<9, util.NewSplitMix64(9))
		for _, c := range chunks {
			a.UpdateBatch(c)
		}
		for _, u := range batch {
			b.Update(u.Item, u.Delta)
		}
		rng := util.NewSplitMix64(1)
		for i := 0; i < 2000; i++ {
			it := rng.Uint64n(512)
			if ae, be := a.Estimate(it), b.Estimate(it); ae != be {
				t.Fatalf("CountMin estimate(%d): batch %d vs single %d", it, ae, be)
			}
		}
	})
}

// TestUpdateBatchSteadyStateAllocFree is the acceptance gate for the
// ingest hot path: once the reusable scratch has warmed up, UpdateBatch
// must not allocate, for any sketch variant, even when batches alternate.
func TestUpdateBatchSteadyStateAllocFree(t *testing.T) {
	b1 := mixedBatch(11, 4096)
	b2 := mixedBatch(13, 4096)

	check := func(t *testing.T, feed func(batch []stream.Update)) {
		t.Helper()
		// Warm-up: grow scratch buffers, tracker, and probe table.
		for i := 0; i < 4; i++ {
			feed(b1)
			feed(b2)
		}
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			if i++; i%2 == 0 {
				feed(b1)
			} else {
				feed(b2)
			}
		})
		if allocs != 0 {
			t.Fatalf("UpdateBatch allocated %.1f times per batch at steady state, want 0", allocs)
		}
	}

	t.Run("countsketch", func(t *testing.T) {
		cs := NewCountSketch(5, 1<<10, util.NewSplitMix64(1))
		check(t, cs.UpdateBatch)
	})
	t.Run("countsketch-topk", func(t *testing.T) {
		cs := NewCountSketchTopK(5, 1<<10, 64, util.NewSplitMix64(1))
		check(t, cs.UpdateBatch)
	})
	t.Run("ams", func(t *testing.T) {
		a := NewAMS(5, 4, util.NewSplitMix64(1))
		check(t, a.UpdateBatch)
	})
	t.Run("countmin", func(t *testing.T) {
		cm := NewCountMin(5, 1<<10, util.NewSplitMix64(1))
		check(t, cm.UpdateBatch)
	})
}
