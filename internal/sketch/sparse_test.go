package sketch

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/xhash"
)

// A sparse CountSketch is held to its dense twin (dense): the same
// seed, materialized from the start, fed the same updates through the
// same doors. After every call the two must agree on everything a reader
// can see — the counters, the wire bytes, the tracker's heap order, the
// F2 estimate's bits and the point queries.

// sameState fails unless sp and de are indistinguishable to a reader.
func sameState(t *testing.T, step string, sp, de *CountSketch, probes []uint64) {
	t.Helper()
	if sp.ResidentBytes() > sp.SpaceBytes() {
		t.Fatalf("%s: resident %d bytes, over the matrix's %d", step, sp.ResidentBytes(), sp.SpaceBytes())
	}
	if a, b := sp.FoldCounters(1), de.FoldCounters(1); a != b {
		t.Fatalf("%s: counters fold to %x, dense twin %x", step, a, b)
	}
	a, err := sp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := de.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: wire bytes differ from the dense twin's (%d vs %d bytes)", step, len(a), len(b))
	}
	if sp.topK != nil && !slices.Equal(sp.topK.heap, de.topK.heap) {
		t.Fatalf("%s: tracker heap differs from the dense twin's", step)
	}
	if a, b := sp.EstimateF2(), de.EstimateF2(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: EstimateF2 %v, dense twin %v", step, a, b)
	}
	for _, it := range probes {
		if a, b := sp.Estimate(it), de.Estimate(it); a != b {
			t.Fatalf("%s: Estimate(%d) = %d, dense twin %d", step, it, a, b)
		}
		if a, b := sp.EstimateMean(it), de.EstimateMean(it); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: EstimateMean(%d) = %v, dense twin %v", step, it, a, b)
		}
	}
	if sp.topK != nil && !slices.Equal(sp.TopK(), de.TopK()) {
		t.Fatalf("%s: TopK differs from the dense twin's", step)
	}
}

// sparseUpdates draws n updates over universe items of the seed's own
// (two seeds share none), scattered over the 64-bit range, deltas in
// [-4, 4] with an occasional heavy one.
func sparseUpdates(seed uint64, n int, universe uint64) []stream.Update {
	rng := util.NewSplitMix64(seed)
	ups := make([]stream.Update, n)
	for i := range ups {
		d := int64(rng.Uint64n(9)) - 4
		if rng.Uint64n(16) == 0 {
			d *= 100
		}
		ups[i] = stream.Update{Item: (seed<<32 + rng.Uint64n(universe)) * 0x9e3779b97f4a7c15, Delta: d}
	}
	return ups
}

// negated returns the updates that cancel ups.
func negated(ups []stream.Update) []stream.Update {
	out := make([]stream.Update, len(ups))
	for i, u := range ups {
		out[i] = stream.Update{Item: u.Item, Delta: -u.Delta}
	}
	return out
}

// probesOf returns a probe set: some items of ups and some never seen.
func probesOf(ups []stream.Update) []uint64 {
	var out []uint64
	for i := 0; i < len(ups); i += 1 + len(ups)/16 {
		out = append(out, ups[i].Item)
	}
	return append(out, 1, 2, 1<<63)
}

// twin is a sparse sketch and its dense twin, fed together.
type twin struct {
	t      *testing.T
	sp, de *CountSketch
	probes []uint64
}

func newTwin(t *testing.T, r int, b uint64, k int, seed uint64) *twin {
	tw := &twin{t: t}
	if k > 0 {
		tw.sp = NewCountSketchTopK(r, b, k, util.NewSplitMix64(seed))
		tw.de = dense(NewCountSketchTopK(r, b, k, util.NewSplitMix64(seed)))
	} else {
		tw.sp = NewCountSketch(r, b, util.NewSplitMix64(seed))
		tw.de = dense(NewCountSketch(r, b, util.NewSplitMix64(seed)))
	}
	return tw
}

func (tw *twin) check(step string) { tw.t.Helper(); sameState(tw.t, step, tw.sp, tw.de, tw.probes) }

// feed sends ups through the three doors in turn — whole batches, ragged
// batches of 1..97 updates, single updates — checking after every call.
func (tw *twin) feed(step string, ups []stream.Update) {
	tw.t.Helper()
	tw.probes = append(tw.probes, probesOf(ups)...)
	third := len(ups) / 3
	tw.sp.UpdateBatch(ups[:third])
	tw.de.UpdateBatch(ups[:third])
	tw.check(step + ": whole batch")
	i := third
	for n := 1; i+n <= 2*third; n = n%97 + 1 {
		tw.sp.UpdateBatch(ups[i : i+n])
		tw.de.UpdateBatch(ups[i : i+n])
		tw.check(step + ": ragged batch")
		i += n
	}
	for _, u := range ups[i:] {
		tw.sp.Update(u.Item, u.Delta)
		tw.de.Update(u.Item, u.Delta)
		tw.check(step + ": single update")
	}
}

func TestSparseMatchesDense(t *testing.T) {
	const r, b = 5, 256
	// Past most entries a table would outweigh the matrix on its entries
	// alone (at 5 x 256 growth stops it at 128).
	most := r * b * 8 / (16 + 4*r)
	for _, k := range []int{0, 16} {
		tw := newTwin(t, r, b, k, 7)
		// A hundred-odd items stay a table; a −S pass empties it.
		small := sparseUpdates(1, 600, 100)
		tw.feed("a table", small)
		if !tw.sp.sparse() || len(tw.sp.tab.items) == 0 {
			t.Fatalf("k=%d: %d entries after 100 items, want a non-empty table", k, len(tw.sp.tab.items))
		}
		tw.feed("the −S pass", negated(small))
		if !tw.sp.sparse() || len(tw.sp.tab.items) != 0 || tw.sp.ResidentBytes() == 0 {
			t.Fatalf("k=%d: after −S: sparse %v, %d entries, want an empty table that kept its allocation",
				k, tw.sp.sparse(), len(tw.sp.tab.items))
		}
		// One whole batch outgrows the table mid-batch.
		tw.feed("refill", small)
		wide := sparseUpdates(2, 3*most, 4*uint64(most))
		tw.sp.UpdateBatch(wide)
		tw.de.UpdateBatch(wide)
		tw.probes = append(tw.probes, probesOf(wide)...)
		if tw.sp.sparse() {
			t.Fatalf("k=%d: still sparse with %d entries after %d distinct items", k, len(tw.sp.tab.items), 4*most)
		}
		if got := tw.sp.ResidentBytes(); got != tw.sp.SpaceBytes() {
			t.Fatalf("k=%d: dense sketch resident %d bytes, want its budget %d", k, got, tw.sp.SpaceBytes())
		}
		tw.check("crossed mid-batch")
		tw.feed("dense", sparseUpdates(3, 300, 1000))
	}
	// The single-update door materializes too: not before the table holds
	// a fair share of most, and not after most.
	tw := newTwin(t, r, b, 16, 9)
	i := 0
	for ; tw.sp.sparse() && i <= most; i++ {
		tw.sp.Update(uint64(i), 1)
		tw.de.Update(uint64(i), 1)
		tw.check("single updates")
	}
	if i < most/4 || tw.sp.sparse() {
		t.Fatalf("sparse %v after %d distinct single updates, want dense after %d to %d", tw.sp.sparse(), i, most/4, most)
	}
}

// TestTrackedTableMaterializesPastOneChunk: a tracked table re-scores a
// batch's items from its gathered buckets one chunk at a time, so a batch
// of more than batchChunk of its items makes it materialize first (one
// pass over the table a row, as before the chunks), while an untracked
// table, which re-scores nothing, stays a table. Either way the state is
// its dense twin's.
func TestTrackedTableMaterializesPastOneChunk(t *testing.T) {
	const r, b = 5, 2048 // a table of 5 x 2048 holds 1,525 entries
	distinct := func(from, n int) []stream.Update {
		ups := make([]stream.Update, n)
		for i := range ups {
			ups[i] = stream.Update{Item: uint64(from+i) * 0x9e3779b97f4a7c15, Delta: int64(i%7) - 3}
		}
		return ups
	}
	for _, k := range []int{0, 64} {
		tw := newTwin(t, r, b, k, 13)
		for _, step := range []struct {
			name       string
			ups        []stream.Update
			wantSparse bool
		}{
			{"one chunk", distinct(0, batchChunk), true},
			{"one past a chunk", distinct(batchChunk, batchChunk+1), k == 0},
		} {
			tw.probes = append(tw.probes, probesOf(step.ups)...)
			tw.sp.UpdateBatch(step.ups)
			tw.de.UpdateBatch(step.ups)
			if tw.sp.sparse() != step.wantSparse {
				t.Fatalf("k=%d, %s: sparse %v, want %v", k, step.name, tw.sp.sparse(), step.wantSparse)
			}
			tw.check(step.name)
		}
	}
}

func TestSparseMergesMatchDense(t *testing.T) {
	const r, b, k = 5, 256, 16 // a table of 5 x 256 holds at most 128 entries
	few := func(seed uint64) []stream.Update { return sparseUpdates(seed, 200, 60) }
	many := func(seed uint64) []stream.Update { return sparseUpdates(seed, 1000, 500) }
	for _, tc := range []struct {
		name       string
		dst, src   []stream.Update
		wire       bool
		wantSparse bool
	}{
		{"sparse+sparse", few(1), few(2), false, true},
		{"sparse+sparse outgrowing a table", sparseUpdates(3, 300, 100), sparseUpdates(4, 300, 100), false, false},
		{"sparse+dense", few(5), many(6), false, false},
		{"dense+sparse", many(7), few(8), false, false},
		{"sparse+sparse over the wire", few(9), few(10), true, false},
	} {
		dst, src := newTwin(t, r, b, k, 11), newTwin(t, r, b, k, 11)
		dst.feed(tc.name+" (receiver)", tc.dst)
		src.feed(tc.name+" (sender)", tc.src)
		if tc.wire {
			blob, err := src.sp.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !src.sp.sparse() {
				t.Fatalf("%s: MarshalBinary materialized the sender", tc.name)
			}
			if err := dst.sp.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			if err := dst.de.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := dst.sp.Merge(src.sp); err != nil {
				t.Fatal(err)
			}
			if err := dst.de.Merge(src.de); err != nil {
				t.Fatal(err)
			}
		}
		dst.probes = append(dst.probes, src.probes...)
		dst.check(tc.name)
		if dst.sp.sparse() != tc.wantSparse {
			t.Errorf("%s: sparse %v after the merge, want %v", tc.name, dst.sp.sparse(), tc.wantSparse)
		}
		dst.feed(tc.name+", then fed", few(12))
	}
}

// TestSparseStackMatchesDense runs a stack the way internal/recursive
// does — levels sharing level 0's row hashes (and so one replay row), one
// collapsed batch narrowed by a subsampling hash between levels — with
// levels on both sides of materializing, against a stack of dense twins.
func TestSparseStackMatchesDense(t *testing.T) {
	const r, b, k, levels = 5, 256, 16, 6
	build := func(mk func(seed uint64) *CountSketch) []*CountSketch {
		out := make([]*CountSketch, levels)
		for l := range out {
			out[l] = mk(uint64(100 + l))
			if l > 0 && !out[l].ShareRowHashes(out[0]) {
				t.Fatal("levels of one shape must share row hashes")
			}
		}
		return out
	}
	sp := build(func(seed uint64) *CountSketch { return NewCountSketchTopK(r, b, k, util.NewSplitMix64(seed)) })
	de := build(func(seed uint64) *CountSketch { return dense(NewCountSketchTopK(r, b, k, util.NewSplitMix64(seed))) })
	rng := util.NewSplitMix64(5)
	sub := make([]*xhash.Bernoulli, levels-1)
	for l := range sub {
		sub[l] = xhash.NewBernoulli(2, 1, 2, rng.Fork())
	}
	var bs, bd Batch
	cascade := func(b *Batch, stack []*CountSketch, ups []stream.Update) {
		b.Collapse(ups)
		for l, cs := range stack {
			if l > 0 {
				b.Subsample(sub[l-1])
			}
			cs.Apply(b)
		}
	}
	ups := sparseUpdates(6, 1<<13, 1500)
	probes := probesOf(ups)
	for _, pass := range [][]stream.Update{ups, negated(ups[:1<<12])} {
		for i := 0; i < len(pass); i += 1024 {
			cascade(&bs, sp, pass[i:i+1024])
			cascade(&bd, de, pass[i:i+1024])
			for l := range sp {
				sameState(t, "stack level", sp[l], de[l], probes)
			}
		}
	}
	if sp[0].sparse() || !sp[levels-1].sparse() {
		t.Fatalf("levels sparse %v … %v, want the stack to straddle materializing", sp[0].sparse(), sp[levels-1].sparse())
	}
	if sp[levels-1].replay != sp[0].replay {
		t.Fatal("levels sharing row hashes must share the replay row")
	}
}
