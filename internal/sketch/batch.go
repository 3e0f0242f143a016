package sketch

import (
	"repro/internal/stream"
	"repro/internal/xhash"
)

// Batch ingestion paths. Every sketch here is linear in the frequency
// vector, so updates to the same item within a batch collapse into a
// single counter touch per row: aggregate the batch into (distinct item,
// net delta) pairs first, then walk the rows. For heavy-tailed streams
// (the Zipf workloads of the experiments) this removes most of the hash
// evaluations on the hot path; for streams of distinct items it costs one
// map pass. The counter state after UpdateBatch is bit-identical to the
// equivalent sequence of Update calls.

// batchAgg is reusable scratch for duplicate aggregation: the items in
// first-seen order (deterministic iteration) with their net deltas, plus
// an open-addressed index for interleaved-duplicate detection. All
// buffers are retained across batches, so after the first few batches of
// a steady stream UpdateBatch allocates nothing.
type batchAgg struct {
	// slots is an open-addressed, linear-probe hash table over the items
	// of the current batch: slots[h] holds index+1 into order/ds (0 =
	// empty). A flat power-of-two table probed with a strong multiplicative
	// mix replaces the runtime map the profile showed dominating collapse.
	slots []int32
	order []uint64 // distinct items, first-seen order
	ds    []int64  // net delta per order entry
	// Hash-reuse scratch for the CountSketch batch path: per-item reduced
	// keys (xs), per-row bucket indices and signs (hs, ss), and the
	// per-(item, row) estimate matrix (ests) for the tracked variant, so
	// the post-batch re-score reads settled counters without re-hashing.
	xs   []uint64
	hs   []uint64
	ss   []int64
	ests []int64
}

// mix64 is the SplitMix64 finalizer, a strong multiplicative bit mixer
// used to spread items over the probe tables (batchAgg.slots here,
// topTracker.pos).
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// collapse aggregates the batch, preserving first-seen item order.
//
// The scan is run-length aware — the fast path for duplicate-heavy
// batches: consecutive updates to the same item (bursty/clustered arrival
// order, or the single-item floods of adversarial streams) are coalesced
// with plain integer additions before the table is touched, so a run of
// length L costs one probe instead of L. Interleaved duplicates still
// collapse through the table as before.
func (a *batchAgg) collapse(batch []stream.Update) {
	// Size the probe table at ≥2x the batch (≤50% load). Tables are always
	// powers of two and only grow, so the mask arithmetic stays valid and
	// steady-state batches reuse the allocation.
	need := 2 * len(batch)
	if len(a.slots) < need {
		size := len(a.slots)
		if size == 0 {
			size = 64
		}
		for size < need {
			size <<= 1
		}
		a.slots = make([]int32, size)
	}
	mask := uint64(len(a.slots) - 1)
	a.order = a.order[:0]
	a.ds = a.ds[:0]
	for i := 0; i < len(batch); {
		it := batch[i].Item
		d := batch[i].Delta
		j := i + 1
		for j < len(batch) && batch[j].Item == it {
			d += batch[j].Delta
			j++
		}
		for h := mix64(it) & mask; ; h = (h + 1) & mask {
			s := a.slots[h]
			if s == 0 {
				a.slots[h] = int32(len(a.order)) + 1
				a.order = append(a.order, it)
				a.ds = append(a.ds, d)
				break
			}
			if a.order[s-1] == it {
				a.ds[s-1] += d
				break
			}
		}
		i = j
	}
}

// reset clears the scratch for the next batch. The probe table is cleared
// wholesale (a vectorized memclr of a few tens of KB, cheap next to the
// row walks); order and ds just truncate.
func (a *batchAgg) reset() {
	clear(a.slots)
	a.order = a.order[:0]
	a.ds = a.ds[:0]
}

// UpdateBatch processes a batch of turnstile updates. The counter state
// equals the one reached by calling Update for each element in order;
// the top-k tracker (when present) is refreshed once per distinct item
// against the post-batch counters instead of once per update.
func (cs *CountSketch) UpdateBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	cs.agg.collapse(batch)
	order := cs.agg.order
	// Reduce every distinct item mod 2^61-1 once; every row's polynomial
	// evaluations (hashRow) reuse the reduced key.
	if cap(cs.agg.xs) < len(order) {
		cs.agg.xs = make([]uint64, len(order))
	}
	xs := cs.agg.xs[:len(order)]
	for i, it := range order {
		xs[i] = it % xhash.MersennePrime61
	}
	ds := cs.agg.ds
	if cap(cs.agg.hs) < len(order) {
		cs.agg.hs = make([]uint64, len(order))
		cs.agg.ss = make([]int64, len(order))
	}
	hs, ss := cs.agg.hs[:len(order)], cs.agg.ss[:len(order)]
	// A tracked sketch re-scores every distinct item after the batch, which
	// needs the same (bucket, sign) hashes as the counter update. Hash each
	// (row, item) pair ONCE: apply row j, then read the settled row back
	// into the estimate matrix. A row is fully updated before it is read,
	// so the matrix holds exactly what Estimate would recompute.
	var ests []int64
	if cs.topK != nil {
		if cap(cs.agg.ests) < len(order)*cs.rows {
			cs.agg.ests = make([]int64, len(order)*cs.rows)
		}
		ests = cs.agg.ests[:len(order)*cs.rows]
	}
	for j := 0; j < cs.rows; j++ {
		counts := cs.counts[j]
		cs.hashRow(j, xs, hs, ss)
		// Adds into a row commute and duplicates were already collapsed, so
		// the counters end where the per-update walk would leave them.
		for i, d := range ds {
			counts[hs[i]] += ss[i] * d
		}
		if cs.topK != nil {
			for i := range hs {
				ests[i*cs.rows+j] = ss[i] * counts[hs[i]]
			}
		}
	}
	if cs.topK != nil {
		for i, it := range order {
			cs.topK.offer(it, median(ests[i*cs.rows:(i+1)*cs.rows]))
		}
	}
	cs.agg.reset()
}

// UpdateBatch processes a batch of turnstile updates; the counter state
// is bit-identical to per-update ingestion.
func (a *AMS) UpdateBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	a.agg.collapse(batch)
	order, ds := a.agg.order, a.agg.ds
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
	a.agg.reset()
}

// UpdateBatch processes a batch of turnstile updates; the counter state
// is bit-identical to per-update ingestion.
func (cm *CountMin) UpdateBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	cm.agg.collapse(batch)
	order, ds := cm.agg.order, cm.agg.ds
	for j := 0; j < cm.rows; j++ {
		counts, bucket := cm.counts[j], cm.bucket[j]
		for i, it := range order {
			if d := ds[i]; d != 0 {
				counts[bucket.Hash(it)] += d
			}
		}
	}
	cm.agg.reset()
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
