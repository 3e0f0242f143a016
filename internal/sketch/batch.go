package sketch

import (
	"math/bits"

	"repro/internal/stream"
	"repro/internal/xhash"
)

// Batch ingestion paths. Every sketch here is linear in the frequency
// vector, so updates to the same item within a batch collapse into a
// single counter touch per row: aggregate the batch into (distinct item,
// net delta) pairs first, then walk the rows. For heavy-tailed streams
// (the Zipf workloads of the experiments) this removes most of the hash
// evaluations on the hot path; for streams of distinct items it costs one
// table pass. The counter state after UpdateBatch is bit-identical to the
// equivalent sequence of Update calls.

// Batch is a batch of updates in the form the sketches walk: collapsed to
// its distinct items in first-seen order (deterministic iteration) with
// their net deltas and each item's value mod 2^61-1, from which the first
// sketch to walk the batch hashes every item for every row, once.
// Whoever collapses owns the Batch: a stack of CountSketches over nested
// sub-universes (internal/recursive) collapses once, hands each level the
// Batch with Apply and narrows it with Subsample in between. Narrowing
// moves nothing: the items, deltas and hashes stay where Collapse and the
// first Apply put them, and sel, the positions still in the sub-universe,
// is what shrinks. All buffers are retained across batches, so after the
// first few batches of a steady stream ingestion allocates nothing. What
// they retain is sized by the batch: at most one entry per update in items,
// ds, xs and sel, rows entries per update in hashed, twice the batch in
// slots, and one fixed chunk of rows x batchChunk estimates for a re-score
// (at the benchmark's 5 rows and 4096-update batches: 249,856 B). An owner
// collapses through For, so what it keeps is sized by at most KeepBatch
// updates. The zero value is ready to use.
type Batch struct {
	// slots is an open-addressed, linear-probe hash table over the items
	// of the batch being collapsed: slots[h] holds index+1 into items/ds
	// (0 = empty, as it is everywhere between two collapses). A flat
	// power-of-two table probed with a strong multiplicative mix replaces
	// the runtime map the profile showed dominating collapse.
	slots []int32
	items []uint64 // distinct items, first-seen order
	ds    []int64  // net delta per item
	// xs[i] = items[i] mod 2^61-1, filled by Collapse for the CountSketch
	// walk and the subsampling filters.
	xs []uint64
	// sel holds, ascending, the positions (into items, ds, xs, and the
	// columns of hashed) of the items in the current sub-universe: all of
	// them after Collapse, fewer after each Subsample.
	sel []int32
	// hashed is the rows x len(items) matrix, row-major, of family by's
	// packed hashes: hashed[j*len(items)+i] = bucket<<1 | sign bit of item
	// i in row j. The first sketch to Apply the batch fills it, and every
	// sketch that evaluates the same family (the levels of a stack do, see
	// CountSketch.ShareRowHashes) reads it instead of hashing again. by is
	// nil until then.
	hashed []uint32
	by     *rowHashes
	// ests is the row-major (row, item) estimate matrix of one chunk of a
	// tracked sketch's re-score: the settled counters of at most batchChunk
	// selected items, read back without re-hashing.
	ests []int64
}

// batchChunk is how many items a tracked sketch re-scores from one read
// of its rows, and how many items Batch.hashFor takes the powers of at a
// time: a size, not a knob. It bounds the estimate matrix a Batch retains
// at rows x batchChunk whatever the batch's length, and a chunk's powers
// and estimates stay cache-resident across the rows that read them.
const batchChunk = 512

// KeepBatch is the longest batch, in updates, whose buffers the owner of
// a retained Batch keeps: 4 x stream.BatchSize. A longer one, such as a
// near-cap stream frame, is collapsed into a one-off Batch (For).
const KeepBatch = 4 * stream.BatchSize

// For returns the Batch to collapse n updates into: b, or for n past
// KeepBatch a fresh Batch the caller drops after its apply, so one huge
// batch does not leave b's buffers sized by it.
func (b *Batch) For(n int) *Batch {
	if n > KeepBatch {
		return new(Batch)
	}
	return b
}

// mix64 is the SplitMix64 finalizer, a strong multiplicative bit mixer
// used to spread items over the probe tables (Batch.slots here,
// topTracker.pos).
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Len returns the number of distinct items in the batch (after Subsample:
// of those in the sub-universe).
func (b *Batch) Len() int { return len(b.sel) }

// Each calls fn with every distinct item, in first-seen order, and its
// net delta: the batch as a sequence of updates, for whoever takes those.
func (b *Batch) Each(fn func(item uint64, delta int64)) {
	for _, i := range b.sel {
		fn(b.items[i], b.ds[i])
	}
}

// aggregate collapses the batch into items/ds, preserving first-seen
// item order.
//
// The scan is run-length aware — the fast path for duplicate-heavy
// batches: consecutive updates to the same item (bursty/clustered arrival
// order, or the single-item floods of adversarial streams) are coalesced
// with plain integer additions before the table is touched, so a run of
// length L costs one probe instead of L. Interleaved duplicates still
// collapse through the table as before.
func (b *Batch) aggregate(batch []stream.Update) {
	// Size the probe table at ≥2x the batch (≤50% load). Tables are always
	// powers of two and only grow, so the mask arithmetic stays valid and
	// steady-state batches reuse the allocation.
	need := 2 * len(batch)
	if len(b.slots) < need {
		size := len(b.slots)
		if size == 0 {
			size = 64
		}
		for size < need {
			size <<= 1
		}
		b.slots = make([]int32, size)
	}
	mask := uint64(len(b.slots) - 1)
	b.items = b.items[:0]
	b.ds = b.ds[:0]
	before := cap(b.items)
	for i := 0; i < len(batch); {
		it := batch[i].Item
		d := batch[i].Delta
		j := i + 1
		for j < len(batch) && batch[j].Item == it {
			d += batch[j].Delta
			j++
		}
		for h := mix64(it) & mask; ; h = (h + 1) & mask {
			s := b.slots[h]
			if s == 0 {
				b.slots[h] = int32(len(b.items)) + 1
				b.items = append(b.items, it)
				b.ds = append(b.ds, d)
				break
			}
			if b.items[s-1] == it {
				b.ds[s-1] += d
				break
			}
		}
		i = j
	}
	// The table is only needed while collapsing: clear it wholesale for
	// the next batch (a vectorized memclr of a few tens of KB, cheap next
	// to the row walks).
	clear(b.slots)
	// A batch has no more distinct items than updates, but append's growth
	// steps can overshoot its length (to 5,120 for 4,096): trim what this
	// batch grew to it, once, and no batch of this length grows them again.
	if n := len(batch); cap(b.items) != before && cap(b.items) > n {
		b.items = append(make([]uint64, 0, n), b.items...)
		b.ds = append(make([]int64, 0, n), b.ds...)
	}
}

// Collapse makes b the collapsed form of batch for the CountSketch walk:
// aggregate, then reduce every distinct item mod 2^61-1 once, for every
// row of every sketch b is applied to.
func (b *Batch) Collapse(batch []stream.Update) {
	b.aggregate(batch)
	n := len(b.items)
	if cap(b.xs) < n {
		// items only reallocates to grow, and never past the batch's
		// length, so its capacity sizes the rest.
		b.xs, b.sel = make([]uint64, cap(b.items)), make([]int32, cap(b.items))
	}
	b.xs, b.sel = b.xs[:n], b.sel[:n]
	for i, it := range b.items {
		b.xs[i] = it % xhash.MersennePrime61
		b.sel[i] = int32(i)
	}
	b.by = nil
}

// Subsample narrows b to the items h selects: what is left is the
// collapsed form of the sub-stream over h's sub-universe — the filter of a
// first-seen order is the first-seen order of the filter. Only sel is
// rewritten.
func (b *Batch) Subsample(h *xhash.Bernoulli) {
	b.sel = h.Filter(b.xs, b.sel)
}

// hashFor fills hashed with family f's hashes of every item of the batch,
// selected or not: the family's first sketch to walk a batch sees all of
// it (level 0 of a stack, or a sketch's own UpdateBatch door). It takes
// the items batchChunk at a time, their powers (xhash.Powers) once into
// two fixed arrays, for every row.
func (b *Batch) hashFor(f *rowHashes) {
	n := len(b.items)
	if cap(b.hashed) < f.rows*n {
		b.hashed = make([]uint32, f.rows*cap(b.xs))
	}
	b.hashed = b.hashed[:f.rows*n]
	var x2s, x3s [batchChunk]uint64
	for lo := 0; lo < n; lo += batchChunk {
		xs := b.xs[lo:min(lo+batchChunk, n)]
		for i, x := range xs {
			x2s[i], x3s[i] = xhash.Powers(x)
		}
		for j := 0; j < f.rows; j++ {
			f.hashRow(j, xs, x2s[:], x3s[:], b.hashed[j*n+lo:])
		}
	}
	b.by = f
}

// UpdateBatch processes a batch of turnstile updates. The counter state
// equals the one reached by calling Update for each element in order;
// the top-k tracker (when present) is refreshed once per distinct item
// against the post-batch counters instead of once per update. It is
// Collapse into the sketch's own Batch, then Apply: a sketch fed through
// Apply alone never allocates one.
func (cs *CountSketch) UpdateBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	if cs.agg == nil {
		cs.agg = new(Batch)
	}
	agg := cs.agg.For(len(batch))
	agg.Collapse(batch)
	cs.Apply(agg)
}

// Apply feeds a collapsed batch to the sketch: the row walk and, on a
// tracked sketch, the re-score of the batch's items. It hashes the batch
// only if no sketch of the same row-hash family has yet; otherwise it
// adds, reads back and re-scores. b is only read, apart from that and its
// scratch. A sparse sketch adds the batch into its table instead, taking
// a new entry's row hashes from the batch's, and re-scores from the
// batch's buckets gathered from the table; an item the table has no room
// for materializes it, and the rest of the batch takes the row walk. So
// does a tracked table that the batch selects more than batchChunk items
// of: re-scoring them would gather from the whole table once a chunk, and
// the matrix reads each counter directly.
func (cs *CountSketch) Apply(b *Batch) {
	sel := b.sel
	if len(sel) == 0 {
		return
	}
	if b.by != cs.hash {
		b.hashFor(cs.hash)
	}
	n, ds := len(b.items), b.ds
	if cs.flat == nil && cs.topK != nil && len(sel) > batchChunk {
		cs.materialize()
	}
	walk := sel
	if cs.flat == nil {
		walk = cs.absorb(b)
	}
	if cs.flat != nil {
		for j := 0; j < cs.rows; j++ {
			counts, hashed := cs.row(j), b.hashed[j*n:(j+1)*n]
			// Adds into a row commute and duplicates were already collapsed,
			// so the counters end where the per-update walk would leave them.
			for _, i := range walk {
				p := hashed[i]
				counts[p>>1] += signed(p, ds[i])
			}
		}
	}
	if cs.topK == nil {
		return
	}
	// A tracked sketch re-scores every selected item against the settled
	// counters, from the same (bucket, sign) hashes as the counter update,
	// a chunk at a time: read the chunk's counters from every row into the
	// estimate matrix, then offer its items. Offers leave the counters as
	// they are, so every item meets the median and the floor it would in
	// one pass over the whole batch.
	if need := cs.rows * min(len(sel), batchChunk); cap(b.ests) < need {
		b.ests = make([]int64, cs.rows*min(cap(b.sel), batchChunk))
	}
	for lo := 0; lo < len(sel); lo += batchChunk {
		part := sel[lo:min(lo+batchChunk, len(sel))]
		ests := b.ests[:cs.rows*len(part)]
		cs.readBack(b, part, ests)
		cs.rescore(b.items, part, ests)
	}
}

// readBack fills ests, row-major, with every row's estimate of the items
// at positions part of b: the signed counter each one's bucket holds. A
// sparse sketch (one chunk at most, see Apply) reads only those buckets,
// gathered from its table — a level sees far fewer items a batch than it
// holds.
func (cs *CountSketch) readBack(b *Batch, part []int32, ests []int64) {
	n, m := len(b.items), len(part)
	if cs.flat != nil {
		for j := 0; j < cs.rows; j++ {
			counts, hashed, row := cs.row(j), b.hashed[j*n:(j+1)*n], ests[j*m:(j+1)*m]
			for t, i := range part {
				p := hashed[i]
				row[t] = signed(p, counts[p>>1])
			}
		}
		return
	}
	counts, mark := cs.replayRow()
	for j := 0; j < cs.rows; j++ {
		hashed, row := b.hashed[j*n:(j+1)*n], ests[j*m:(j+1)*m]
		for _, i := range part {
			mark[hashed[i]>>1] = true
		}
		cs.tab.gather(j, counts, mark)
		for t, i := range part {
			p := hashed[i]
			row[t] = signed(p, counts[p>>1])
		}
		for _, i := range part {
			h := hashed[i] >> 1
			counts[h], mark[h] = 0, false
		}
	}
}

// absorb adds the selected items of b into a sparse sketch's table and
// returns the ones left for the row walk: none, unless the table had no
// room for one — then the sketch materialized, and that item and every
// one after it are left.
func (cs *CountSketch) absorb(b *Batch) []int32 {
	n := len(b.items)
	for k, i := range b.sel {
		e, fresh, ok := cs.tab.add(b.items[i], b.ds[i])
		if !ok {
			cs.materialize()
			return b.sel[k:]
		}
		if fresh {
			for j := range cs.tab.hashes {
				cs.tab.place(e, j, b.hashed[j*n+int(i)])
			}
		}
	}
	return nil
}

// rescore offers every selected item of an applied batch to the tracker
// with its post-batch estimate — item items[sel[t]] the median of column t
// of the row-major matrix ests — skipping the items whose offer is
// provably a no-op.
//
// For an item that is not tracked, on a full tracker, offer does nothing
// iff |median| <= floor, the heap's smallest score. And if more than
// rows/2 of the row estimates have |v| <= floor, so has the median, the
// value a sort leaves at index rows/2: were it above the floor, so would
// be every value from that index up, rows - rows/2 of them, leaving at
// most rows/2 inside; were it below -floor, so would be the rows/2 + 1
// values down from that index, leaving no more. Such an item needs
// neither the median nor the offer, and on a stream with many more items
// than the tracker holds that is nine items in ten. The floor is read per
// item: an eviction raises it, and a re-scored tracked item can lower it.
// Tracked items, and every item while the tracker fills, take the median
// and the offer as they always did.
//
// "Inside" is counted without a branch (each test is close to a coin):
// -floor <= v <= floor iff the unsigned sum v + floor is at most 2*floor.
// From -floor up the sum is the true v + floor >= 0, which fits; below
// -floor it wraps to 2^64 + v + floor, and that exceeding 2*floor needs
// only v > floor - 2^64, true of every int64. (v = MinInt64 under a floor
// of MaxInt64 counts as outside although its saturated magnitude ties the
// floor: an undercount, which can only send an item down the exact path.)
func (cs *CountSketch) rescore(items []uint64, sel []int32, ests []int64) {
	t, n, col := cs.topK, len(sel), cs.scratch
	for i, at := range sel {
		it := items[at]
		if len(t.heap) == t.k {
			floor := uint64(t.heap[0].score)
			outside := uint64(0)
			for j := i; j < len(ests); j += n {
				_, out := bits.Sub64(2*floor, uint64(ests[j])+floor, 0)
				outside += out
			}
			if int(outside) < cs.rows-cs.rows/2 && !t.tracked(it) {
				continue
			}
		}
		for j := range col {
			col[j] = ests[j*n+i]
		}
		t.offer(it, median(col))
	}
}
