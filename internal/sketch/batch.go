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
// their net deltas, and — for the CountSketch row walk — each item's value
// mod 2^61-1 with its canonical square and cube, from which the first
// sketch to walk the batch hashes every item for every row, once.
// Whoever collapses owns the Batch: a stack of CountSketches over nested
// sub-universes (internal/recursive) collapses once, hands each level the
// Batch with Apply and narrows it with Subsample in between. Narrowing
// moves nothing: the items, deltas and hashes stay where Collapse and the
// first Apply put them, and sel, the positions still in the sub-universe,
// is what shrinks. All buffers are retained across batches, so after the
// first few batches of a steady stream ingestion allocates nothing. The
// zero value is ready to use.
type Batch struct {
	// slots is an open-addressed, linear-probe hash table over the items
	// of the batch being collapsed: slots[h] holds index+1 into items/ds
	// (0 = empty, as it is everywhere between two collapses). A flat
	// power-of-two table probed with a strong multiplicative mix replaces
	// the runtime map the profile showed dominating collapse.
	slots []int32
	items []uint64 // distinct items, first-seen order
	ds    []int64  // net delta per item
	// Filled by Collapse for the CountSketch walk: xs[i] = items[i] mod
	// 2^61-1, and xhash.Powers of it.
	xs, x2s, x3s []uint64
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
	// ests is the row-major (row, selected item) estimate matrix of a
	// tracked sketch's Apply, so the post-batch re-score reads settled
	// counters without re-hashing.
	ests []int64
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
}

// Collapse makes b the collapsed form of batch for the CountSketch walk:
// aggregate, then reduce every distinct item mod 2^61-1 and take its
// powers once, for every row of every sketch b is applied to.
func (b *Batch) Collapse(batch []stream.Update) {
	b.aggregate(batch)
	n := len(b.items)
	if cap(b.xs) < n {
		// items only reallocates to grow, so its capacity sizes the rest —
		// up to the batch's length, which append's growth steps overshoot
		// and the number of distinct items cannot.
		c := min(cap(b.items), len(batch))
		b.xs, b.x2s, b.x3s = make([]uint64, c), make([]uint64, c), make([]uint64, c)
		b.sel = make([]int32, c)
	}
	b.xs, b.x2s, b.x3s, b.sel = b.xs[:n], b.x2s[:n], b.x3s[:n], b.sel[:n]
	for i, it := range b.items {
		x := it % xhash.MersennePrime61
		b.xs[i] = x
		b.x2s[i], b.x3s[i] = xhash.Powers(x)
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
// it (level 0 of a stack, or a sketch's own UpdateBatch door).
func (b *Batch) hashFor(f *rowHashes) {
	n := len(b.items)
	if cap(b.hashed) < f.rows*n {
		b.hashed = make([]uint32, f.rows*cap(b.xs))
	}
	b.hashed = b.hashed[:f.rows*n]
	for j := 0; j < f.rows; j++ {
		f.hashRow(j, b.xs, b.x2s, b.x3s, b.hashed[j*n:(j+1)*n])
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
	cs.agg.Collapse(batch)
	cs.Apply(cs.agg)
}

// Apply feeds a collapsed batch to the sketch: the row walk and, on a
// tracked sketch, the re-score of the batch's items. It hashes the batch
// only if no sketch of the same row-hash family has yet; otherwise it
// adds, reads back and re-scores. b is only read, apart from that and its
// scratch.
func (cs *CountSketch) Apply(b *Batch) {
	sel := b.sel
	m := len(sel)
	if m == 0 {
		return
	}
	if b.by != cs.hash {
		b.hashFor(cs.hash)
	}
	n, ds := len(b.items), b.ds
	// A tracked sketch re-scores every distinct item after the batch, from
	// the same (bucket, sign) hashes as the counter update: apply row j,
	// then read the settled row back into row j of the estimate matrix. A
	// row is fully updated before it is read, so the matrix holds exactly
	// what Estimate would recompute.
	var ests []int64
	if cs.topK != nil {
		if cap(b.ests) < m*cs.rows {
			b.ests = make([]int64, cap(b.xs)*cs.rows)
		}
		ests = b.ests[:m*cs.rows]
	}
	for j := 0; j < cs.rows; j++ {
		counts, hashed := cs.counts[j], b.hashed[j*n:(j+1)*n]
		// Adds into a row commute and duplicates were already collapsed, so
		// the counters end where the per-update walk would leave them.
		for _, i := range sel {
			p := hashed[i]
			counts[p>>1] += signed(p, ds[i])
		}
		if cs.topK != nil {
			row := ests[j*m : (j+1)*m]
			for t, i := range sel {
				p := hashed[i]
				row[t] = signed(p, counts[p>>1])
			}
		}
	}
	if cs.topK != nil {
		cs.rescore(b.items, sel, ests)
	}
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

// UpdateBatch processes a batch of turnstile updates; the counter state
// is bit-identical to per-update ingestion.
func (a *AMS) UpdateBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	a.agg.aggregate(batch)
	order, ds := a.agg.items, a.agg.ds
	for g := 0; g < a.groups; g++ {
		for r := 0; r < a.reps; r++ {
			z, sign := a.z[g], a.sign[g][r]
			for i, it := range order {
				if d := ds[i]; d != 0 {
					z[r] += sign.Hash(it) * d
				}
			}
		}
	}
}

// UpdateBatch processes a batch of turnstile updates; the counter state
// is bit-identical to per-update ingestion.
func (cm *CountMin) UpdateBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	cm.agg.aggregate(batch)
	order, ds := cm.agg.items, cm.agg.ds
	for j := 0; j < cm.rows; j++ {
		counts, bucket := cm.counts[j], cm.bucket[j]
		for i, it := range order {
			if d := ds[i]; d != 0 {
				counts[bucket.Hash(it)] += d
			}
		}
	}
}

// Merge adds the counters of other into cm. Dimensions must match;
// callers are responsible for seed discipline (same hash functions), as
// with CountSketch.Merge.
func (cm *CountMin) Merge(other *CountMin) error {
	if cm.rows != other.rows || cm.buckets != other.buckets {
		return errDimension("CountMin", cm.rows*int(cm.buckets), other.rows*int(other.buckets))
	}
	for j := 0; j < cm.rows; j++ {
		for i := range cm.counts[j] {
			cm.counts[j][i] += other.counts[j][i]
		}
	}
	return nil
}
