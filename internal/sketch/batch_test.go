package sketch

import (
	"bytes"
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
// inline evaluation (rowBucketSign) reproduces the row's xhash.Sign family
// — Bucket and Hash — bit for bit: the invariant that lets the hot path be
// rewritten without moving a counter.
func TestRowHashMatchesHashFamilies(t *testing.T) {
	cs := NewCountSketch(7, 1<<10, util.NewSplitMix64(42))
	rng := util.NewSplitMix64(7)
	for i := 0; i < 5000; i++ {
		it := rng.Next()
		xp := it % xhash.MersennePrime61
		for j := 0; j < cs.rows; j++ {
			h, s := cs.hash.rowBucketSign(j, xp)
			if want := cs.hash.sign[j].Bucket(it, cs.buckets); h != want {
				t.Fatalf("item %d row %d: bucket %d, want %d", it, j, h, want)
			}
			if want := cs.hash.sign[j].Hash(it); s != want {
				t.Fatalf("item %d row %d: sign %d, want %d", it, j, s, want)
			}
		}
	}
}

// TestHashRowMatchesHashFamilies is TestRowHashMatchesHashFamilies for
// the whole kernel: scalar (rowBucketSign) and batched (hashRow, which
// packs bucket<<1 | sign bit), at the edges of the item range, where the
// bucket reduction is a mask (power-of-two b) and where it is a division.
// The sketch under test evaluates a family it adopted from another, as
// every level of a recursive stack but the first does; the references are
// that family's own Sign.Bucket and Sign.Hash. xhash's
// TestLazyKernelMatchesHash covers arbitrary coefficients.
func TestHashRowMatchesHashFamilies(t *testing.T) {
	const p = xhash.MersennePrime61
	edges := []uint64{0, 1, p - 1, p, p + 1, 1 << 63, 1<<64 - 1}
	for _, b := range []uint64{1, 3, 1 << 10, 4096, 4206} {
		owner := NewCountSketch(7, b, util.NewSplitMix64(42))
		cs := NewCountSketch(7, b, util.NewSplitMix64(43))
		if own := cs.hash; !cs.ShareRowHashes(owner) || cs.hash != owner.hash || cs.hash == own {
			t.Fatalf("b %d: ShareRowHashes did not adopt the owner's family", b)
		}
		if cs.Fingerprint() != owner.Fingerprint() {
			t.Fatalf("b %d: two sketches of one family fingerprint apart", b)
		}
		rng := util.NewSplitMix64(7)
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
			packed := make([]uint32, n)
			for j := 0; j < cs.rows; j++ {
				cs.hash.hashRow(j, xs, x2s, x3s, packed)
				for i, it := range items {
					wantH, wantS := owner.hash.sign[j].Bucket(it, b), owner.hash.sign[j].Hash(it)
					if h, s := uint64(packed[i]>>1), signed(packed[i], 1); h != wantH || s != wantS {
						t.Fatalf("b %d n %d item %d row %d: hashRow (%d, %d), want (%d, %d)",
							b, n, it, j, h, s, wantH, wantS)
					}
					if h, s := cs.hash.rowBucketSign(j, xs[i]); h != wantH || s != wantS {
						t.Fatalf("b %d item %d row %d: rowBucketSign (%d, %d), want (%d, %d)",
							b, it, j, h, s, wantH, wantS)
					}
				}
			}
		}
	}
	if NewCountSketch(7, 64, util.NewSplitMix64(1)).ShareRowHashes(NewCountSketch(7, 128, util.NewSplitMix64(1))) {
		t.Error("ShareRowHashes adopted a family of other dimensions")
	}
}

// TestSharedFamilyHashesABatchOnce: two sketches of one family fed one
// collapsed batch, narrowed in between, as two levels of a recursive stack
// are. The second must find the batch hashed and leave the hashes alone
// (the matrix is poisoned where the sub-universe does not reach, and it
// stays poisoned); what it counts must be what a sketch of its own, same
// seed, counts from the narrowed updates.
func TestSharedFamilyHashesABatchOnce(t *testing.T) {
	batch := mixedBatch(5, 3000)
	top := NewCountSketchTopK(5, 1<<9, 32, util.NewSplitMix64(9))
	deeper := NewCountSketchTopK(5, 1<<9, 32, util.NewSplitMix64(10))
	if !deeper.ShareRowHashes(top) {
		t.Fatal("ShareRowHashes refused equal dimensions")
	}
	alone := NewCountSketchTopK(5, 1<<9, 32, util.NewSplitMix64(9))
	sub := xhash.NewBernoulli(2, 1, 2, util.NewSplitMix64(3))

	var b Batch
	b.Collapse(batch)
	all := b.Len()
	top.Apply(&b)
	if b.by != top.hash || len(b.hashed) != 5*all {
		t.Fatalf("after the first Apply the batch holds %d hashes by %p, want %d by %p", len(b.hashed), b.by, 5*all, top.hash)
	}
	b.Subsample(sub)
	if b.Len() == 0 || b.Len() == all {
		t.Fatalf("Subsample kept %d of %d", b.Len(), all)
	}
	inside := make(map[int32]bool, b.Len())
	for _, i := range b.sel {
		inside[i] = true
	}
	const poison = 1<<32 - 1
	for c := range b.hashed {
		if !inside[int32(c%all)] {
			b.hashed[c] = poison
		}
	}
	before := append([]uint32(nil), b.hashed...)
	deeper.Apply(&b)
	for c, p := range b.hashed {
		if p != before[c] {
			t.Fatalf("the second sketch of the family rewrote hash %d", c)
		}
	}
	b.Each(alone.Update)
	got := deeper.counters()
	for c, v := range alone.counters() {
		if got[c] != v {
			t.Fatalf("row %d bucket %d: %d through the shared hashes, %d alone", c/int(alone.buckets), c%int(alone.buckets), got[c], v)
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
		single := b.counters()
		for i, v := range a.counters() {
			if v != single[i] {
				t.Fatalf("counter %d: batch %d vs single %d", i, v, single[i])
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
		single := b.counters()
		for i, v := range a.counters() {
			if v != single[i] {
				t.Fatalf("counter %d: batch %d vs single %d", i, v, single[i])
			}
		}
	})
}

// TestIngestBatchPathBitIdentical feeds a CountSketch through
// stream.Batches, the chunking every whole-stream ingest door uses, and
// through an odd chunk size: both leave the counters of per-update
// ingestion, byte for byte.
func TestIngestBatchPathBitIdentical(t *testing.T) {
	rng := util.NewSplitMix64(11)
	updates := make([]stream.Update, 5000)
	for i := range updates {
		updates[i] = stream.Update{Item: rng.Uint64n(512), Delta: rng.Int63n(9) - 4}
	}
	marshal := func(cs *CountSketch) []byte {
		b, err := cs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := NewCountSketch(7, 256, util.NewSplitMix64(42))
	for _, u := range updates {
		serial.Update(u.Item, u.Delta)
	}
	batched := NewCountSketch(7, 256, util.NewSplitMix64(42))
	stream.Batches(updates, batched.UpdateBatch)
	if !bytes.Equal(marshal(serial), marshal(batched)) {
		t.Error("batched ingestion diverged from per-update ingestion")
	}
	// A second batched run with an odd batch size must also agree.
	odd := NewCountSketch(7, 256, util.NewSplitMix64(42))
	for lo := 0; lo < len(updates); lo += 137 {
		odd.UpdateBatch(updates[lo:min(lo+137, len(updates))])
	}
	if !bytes.Equal(marshal(serial), marshal(odd)) {
		t.Error("odd batch size diverged from per-update ingestion")
	}
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
}
