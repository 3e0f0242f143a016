package sketch

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/util"
	"repro/internal/wire"
	"repro/internal/xhash"
)

// CountSketch is the r x b counter matrix of Charikar, Chen, and
// Farach-Colton. Row j hashes each item to one of b buckets and multiplies
// its contribution by a ±1 sign, both read off one 4-wise independent
// polynomial value (the analysis asks pairwise independence of the
// buckets, 4-wise of the signs, and the two independent of each other: the
// value's disjoint bits are all three). A point query returns the median
// over rows of sign * counter.
//
// With r = O(log(n/δ)) rows and b buckets, every point estimate satisfies
// |v̂_i - v_i| <= sqrt(F2 / b) * O(1) with probability 1 - δ (the paper uses
// the equivalent parameterization |v̂_i - v_i| <= ε sqrt(λ F2) for a
// CountSketch(λ, ε, δ)).
//
// A sketch holds what it has seen, not what it could: it starts sparse, an
// exact table of item → net count (sparse.go), and materializes the matrix
// only once growing the table would take it past the matrix's bytes, or a
// tracked table is handed a batch of more than 512 of its items (Apply) — so
// the deep levels of a recursive stack, which see about 2^-k of the
// support, cost their support and not r*b counters. A row is linear, so the table determines every
// counter exactly, and every read replays it: counters, point queries, the
// tracker and the wire bytes are those of the matrix, bit for bit.
// SpaceBytes is the matrix's size either way (the budget the paper's bounds
// govern); ResidentBytes is what the sketch holds now.
type CountSketch struct {
	rows    int
	buckets uint64
	// flat is the contiguous r*b counter matrix, row j at
	// flat[j*b:(j+1)*b] (row). One backing array keeps row walks
	// cache-friendly and lets Merge and FoldCounters run a single loop. It
	// is nil while the sketch is sparse.
	flat []int64
	// tab is the sparse sketch's state while flat is nil: every item with
	// a nonzero net count. Once it has no room for an item within the
	// matrix's bytes the sketch materializes and tab is dropped.
	tab table
	// replay is the owner's scratch row a sparse sketch's reads replay tab
	// into: the sketch's own, or the one a stack's levels share.
	replay *replay
	// hash is the row-hash family the sketch evaluates: its own, drawn at
	// construction, or — for a level of a recursive stack — the one every
	// level of the stack shares (ShareRowHashes).
	hash    *rowHashes
	scratch []int64 // per-row estimates, reused across point queries
	// topK, if non-nil, maintains the items with the largest |estimate|
	// seen so far, giving one-pass candidate extraction without a domain
	// scan. It is sized by NewCountSketchTopK.
	topK *topTracker
	// agg is the Batch behind the sketch's own UpdateBatch door, allocated
	// on its first use: a sketch fed collapsed batches (Apply) by an owner
	// that collapsed for a whole stack of sketches never has one. Sketches
	// are not goroutine-safe.
	agg *Batch
}

// rowHashes is the hash family of a CountSketch's rows: per row ONE 4-wise
// independent polynomial over GF(2^61-1), whose value at an item gives the
// item's sign in the row (bit 0) and its bucket (the bits above, mod b) —
// see xhash.Sign.Bucket. It is immutable once drawn, so sketches of equal
// dimensions may evaluate one family between them.
type rowHashes struct {
	rows    int
	buckets uint64
	sign    []*xhash.Sign
	// coef caches every row's coefficients in one flat array, coefPerRow
	// words per row, constant term first. The hot paths evaluate the
	// polynomials inline from this cache instead of chasing sign[j]
	// pointers; values are bit-identical to the Sign evaluations (see
	// xhash.Poly.AppendCoeffs).
	coef []uint64
	// digest folds the dimensions and every coefficient; it is the
	// family's share of CountSketch.Fingerprint.
	digest uint64
}

// coefPerRow is the per-row stride of the coef cache: the 4 coefficients
// of a 4-wise independent polynomial.
const coefPerRow = 4

// MaxBuckets bounds b: the batch path packs a row's bucket index and sign
// bit for an item into 32 bits (Batch.hashed).
const MaxBuckets = 1 << 31

// newRowHashes draws the family of an r x b sketch from rng, a fork a row.
func newRowHashes(r int, b uint64, rng *util.SplitMix64) *rowHashes {
	f := &rowHashes{
		rows:    r,
		buckets: b,
		sign:    make([]*xhash.Sign, r),
		coef:    make([]uint64, 0, coefPerRow*r),
	}
	f.digest = wire.Fingerprint(wire.Fingerprint(0, uint64(r)), b)
	for j := 0; j < r; j++ {
		f.sign[j] = xhash.NewSign(4, rng.Fork())
		f.coef = f.sign[j].AppendCoeffs(f.coef)
		f.digest = f.sign[j].Fingerprint(f.digest)
	}
	return f
}

// NewCountSketch returns a CountSketch with r rows and b buckets, drawing
// hash functions from rng. It panics on non-positive dimensions and on
// more than 2^31 buckets a row.
func NewCountSketch(r int, b uint64, rng *util.SplitMix64) *CountSketch {
	if r <= 0 || b == 0 || b > MaxBuckets {
		panic("sketch: CountSketch needs positive dimensions, at most 2^31 buckets a row")
	}
	return &CountSketch{
		rows:    r,
		buckets: b,
		tab:     newTable(r, b),
		replay:  new(replay),
		hash:    newRowHashes(r, b, rng),
		scratch: make([]int64, r),
	}
}

// row returns row j of a dense sketch's matrix.
func (cs *CountSketch) row(j int) []int64 {
	b := cs.buckets
	return cs.flat[uint64(j)*b : uint64(j+1)*b : uint64(j+1)*b]
}

// materialize makes a sparse sketch dense: the table replayed into a
// fresh matrix, then dropped.
func (cs *CountSketch) materialize() {
	cs.flat = make([]int64, uint64(cs.rows)*cs.buckets)
	for j := 0; j < cs.rows; j++ {
		cs.tab.scatter(j, cs.row(j))
	}
	cs.tab = newTable(cs.rows, cs.buckets)
}

// replayRow returns the owner's scratch row and marks, all zeros, for a
// sparse read to scatter (or gather) row after row of the table into and
// clear again.
func (cs *CountSketch) replayRow() ([]int64, []bool) {
	if cs.replay.row == nil {
		cs.replay.row, cs.replay.mark = make([]int64, cs.buckets), make([]bool, cs.buckets)
	}
	return cs.replay.row, cs.replay.mark
}

// eachRow calls fn with every row of counters in order, for reading: the
// matrix's own rows, or each row of the table replayed into the scratch
// row and cleared after fn returns.
func (cs *CountSketch) eachRow(fn func(j int, row []int64)) {
	if cs.flat != nil {
		for j := 0; j < cs.rows; j++ {
			fn(j, cs.row(j))
		}
		return
	}
	row, _ := cs.replayRow()
	for j := 0; j < cs.rows; j++ {
		cs.tab.scatter(j, row)
		fn(j, row)
		cs.tab.unscatter(j, row)
	}
}

// ShareRowHashes makes cs evaluate other's row-hash family instead of the
// one it drew, and reports whether it could: the two must have the same
// dimensions. It is for construction time, before cs has counted
// anything. A recursive stack shares level 0's family among its levels:
// an item that reaches levels 0…k is then hashed once, not k+1 times
// (Batch.hashed), and one replay row serves them all. Theorem 13 permits
// it — each level's CountSketch guarantee is over this family given the
// level's substream, which is a function of the subsampling hashes alone,
// and the levels' failure events are combined by a union bound, which
// asks nothing of their joint distribution (EXPERIMENTS.md, "Spending the ledger, round 3").
func (cs *CountSketch) ShareRowHashes(other *CountSketch) bool {
	if cs.rows != other.rows || cs.buckets != other.buckets {
		return false
	}
	cs.hash, cs.replay = other.hash, other.replay
	return true
}

// rowBucketSign evaluates row j's bucket index and ±1 sign for xp (the
// item already reduced mod 2^61-1) from the flat coefficient cache. It
// reproduces sign[j].Bucket and sign[j].Hash exactly: a degree-3 Horner
// evaluation over GF(2^61-1), lazily reduced (see xhash.HornerStep) with
// only the final value made canonical.
func (f *rowHashes) rowBucketSign(j int, xp uint64) (uint64, int64) {
	p := f.rowPacked(j, xp)
	return uint64(p >> 1), signed(p, 1)
}

// rowPacked is rowBucketSign's bucket and sign as one packed hash.
func (f *rowHashes) rowPacked(j int, xp uint64) uint32 {
	c := f.coef[coefPerRow*j : coefPerRow*j+coefPerRow : coefPerRow*j+coefPerRow]
	v := xhash.HornerStep(c[3], xp, c[2])
	v = xhash.HornerStep(v, xp, c[1])
	v = xhash.HornerStep(v, xp, c[0])
	return packed(xhash.Reduce(v), f.buckets)
}

// packed maps the canonical value v of a row's polynomial at an item to
// bucket<<1 | sign bit, as xhash.Sign has them: the sign's bit is bit 0 of
// v (set: +1), the bucket the bits above it mod b. Every sketch heavy.dims
// sizes has a power-of-two b, where the two together are one mask; any
// other b pays the division. b is at most MaxBuckets, so the result fits.
func packed(v, b uint64) uint32 {
	if b&(b-1) == 0 {
		return uint32(v & (2*b - 1))
	}
	return uint32(v>>1%b<<1 | v&1)
}

// signed returns d under the sign a packed hash carries: d if the bit is
// set, −d if not. Arithmetic, not a branch: the bit is a fair coin.
func signed(p uint32, d int64) int64 {
	m := int64(p&1) - 1 // 0 keeps d, −1 negates it
	return (d ^ m) - m
}

// hashRow is rowBucketSign over a batch: out[i] is the packed hash of row
// j for the item whose value mod 2^61-1 is xs[i], with x2s[i], x3s[i] =
// xhash.Powers(xs[i]). The polynomial is evaluated from the powers
// (xhash.Cubic: three independent multiplies, against the three dependent
// steps of rowBucketSign's chain), bit-identical to rowBucketSign on the
// same item.
func (f *rowHashes) hashRow(j int, xs, x2s, x3s []uint64, out []uint32) {
	c := f.coef[coefPerRow*j : coefPerRow*j+coefPerRow : coefPerRow*j+coefPerRow]
	b := f.buckets
	x2s, x3s, out = x2s[:len(xs)], x3s[:len(xs)], out[:len(xs)]
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	for i, x := range xs {
		out[i] = packed(xhash.Reduce(xhash.Cubic(c0, c1, c2, c3, x, x2s[i], x3s[i])), b)
	}
}

// NewCountSketchTopK returns a CountSketch that additionally tracks the k
// items with the largest estimated |frequency| among items that appeared in
// the stream, supporting one-pass heavy hitter candidate extraction.
func NewCountSketchTopK(r int, b uint64, k int, rng *util.SplitMix64) *CountSketch {
	cs := NewCountSketch(r, b, rng)
	if k <= 0 {
		panic("sketch: top-k tracker needs k > 0")
	}
	cs.topK = newTopTracker(k)
	return cs
}

// Rows returns the number of rows r.
func (cs *CountSketch) Rows() int { return cs.rows }

// Buckets returns the number of buckets b per row.
func (cs *CountSketch) Buckets() uint64 { return cs.buckets }

// SpaceBytes returns the counter matrix's size in bytes, r*b*8, sparse or
// not: the budget, the quantity the paper's space bounds govern (hash
// seeds are O(1) words each).
func (cs *CountSketch) SpaceBytes() int {
	return cs.rows * int(cs.buckets) * 8
}

// ResidentBytes returns the bytes the counters hold now: SpaceBytes once
// the sketch is dense, the table's allocation while it is sparse — never
// more than SpaceBytes, and 0 before the first nonzero count. The owner's
// replay row (b counters and b marks, one per stack) is not counted.
func (cs *CountSketch) ResidentBytes() int {
	if cs.flat != nil {
		return cs.SpaceBytes()
	}
	return cs.tab.bytes()
}

// Update processes the turnstile update (item, delta).
func (cs *CountSketch) Update(item uint64, delta int64) {
	xp := item % xhash.MersennePrime61
	f := cs.hash
	if cs.flat == nil {
		cs.updateSparse(item, xp, delta)
		return
	}
	b := cs.buckets
	for j := 0; j < cs.rows; j++ {
		h, s := f.rowBucketSign(j, xp)
		cs.flat[uint64(j)*b+h] += s * delta
	}
	if cs.topK != nil {
		cs.topK.offer(item, cs.Estimate(item))
	}
}

// updateSparse is Update on a sparse sketch. The tracker's point query
// reads the item's buckets off its entry when it has one (sparseRows).
func (cs *CountSketch) updateSparse(item, xp uint64, delta int64) {
	e, fresh, ok := cs.tab.add(item, delta)
	if !ok {
		cs.materialize()
		cs.Update(item, delta)
		return
	}
	if fresh {
		for j := range cs.tab.hashes {
			cs.tab.place(e, j, cs.hash.rowPacked(j, xp))
		}
	}
	if cs.topK != nil {
		cs.sparseRows(xp, e)
		cs.topK.offer(item, median(cs.scratch))
	}
}

// Estimate returns the point query v̂_item: the median over rows of
// sign(item) * counter[bucket(item)]. It is allocation-free (point queries
// run on every update when top-k tracking is enabled). On a sparse sketch
// each counter is summed from the table, one pass over the cached hashes:
// O(rows × entries), which the materialize threshold bounds.
func (cs *CountSketch) Estimate(item uint64) int64 {
	cs.rowEstimates(item)
	return median(cs.scratch)
}

// rowEstimates fills scratch[j] with row j's estimate of item,
// sign(item) * counter[bucket(item)].
func (cs *CountSketch) rowEstimates(item uint64) {
	xp := item % xhash.MersennePrime61
	if cs.flat == nil {
		cs.sparseRows(xp, cs.tab.find(item))
		return
	}
	b, f := cs.buckets, cs.hash
	for j := 0; j < cs.rows; j++ {
		h, s := f.rowBucketSign(j, xp)
		cs.scratch[j] = s * cs.flat[uint64(j)*b+h]
	}
}

// sparseRows is rowEstimates on a sparse sketch, for the item whose value
// mod 2^61-1 is xp and whose entry is e (-1: none, so hash it).
func (cs *CountSketch) sparseRows(xp uint64, e int) {
	for j, h := range cs.tab.hashes {
		var p uint32
		if e >= 0 {
			p = h[e]
		} else {
			p = cs.hash.rowPacked(j, xp)
		}
		cs.scratch[j] = signed(p, cs.tab.counter(j, p, e))
	}
}

// estimates returns Estimate of every item against one state. A sparse
// sketch replays each row once for all of them instead of summing every
// item's counters from the table.
func (cs *CountSketch) estimates(items []uint64) []int64 {
	out := make([]int64, len(items))
	if cs.flat != nil || len(items) < 2 {
		for i, it := range items {
			out[i] = cs.Estimate(it)
		}
		return out
	}
	m, f := len(items), cs.hash
	ests := make([]int64, m*cs.rows)
	cs.eachRow(func(j int, row []int64) {
		est := ests[j*m : (j+1)*m]
		for t, it := range items {
			p := f.rowPacked(j, it%xhash.MersennePrime61)
			est[t] = signed(p, row[p>>1])
		}
	})
	for t := range items {
		for j := range cs.scratch {
			cs.scratch[j] = ests[j*m+t]
		}
		out[t] = median(cs.scratch)
	}
	return out
}

// median returns the element a sort of v would leave at index len(v)/2,
// reordering v. It is a selection network of min/max compare-exchanges:
// each pass carries the maximum of v[:end+1] up to v[end], and passes
// stop once v[len(v)/2] is settled. Which comparisons run does not
// depend on the data — row estimates are as good as random, so a
// comparison sort's branches here are mispredictions, and they were a
// fifth of an update.
func median(v []int64) int64 {
	mid := len(v) / 2
	for end := len(v) - 1; end >= mid; end-- {
		hi := v[0]
		for i := 1; i <= end; i++ {
			x := v[i]
			v[i-1] = min(hi, x)
			hi = max(hi, x)
		}
		v[end] = hi
	}
	return v[mid]
}

// EstimateF2 returns the Thorup-Zhang style F2 estimate: the median over
// rows of Σ_b counter². Each row is an unbiased F2 estimator (the bucket
// hash partitions the tug-of-war sum), so this provides the F̂2 that
// Algorithm 2's pruning window needs without a separate AMS structure.
// The standalone AMS sketch remains available, and E9 (EXPERIMENTS.md)
// and the tests check this estimator against it. A sparse sketch sums its
// replayed rows bucket by bucket in the same order, so the float sums are
// the dense sketch's.
func (cs *CountSketch) EstimateF2() float64 {
	ests := make([]float64, cs.rows)
	cs.eachRow(func(j int, row []int64) {
		var sum float64
		for _, c := range row {
			fc := float64(c)
			sum += fc * fc
		}
		ests[j] = sum
	})
	return util.MedianFloat64(ests)
}

// EstimateMean returns the mean-over-rows point query, the ablation
// comparison to the median combiner (BenchmarkAblationMedianVsMean). The
// mean is unbiased but has heavier tails.
func (cs *CountSketch) EstimateMean(item uint64) float64 {
	cs.rowEstimates(item)
	var sum float64
	for _, e := range cs.scratch {
		sum += float64(e)
	}
	return sum / float64(cs.rows)
}

// Candidate is an item together with its estimated frequency.
type Candidate struct {
	Item uint64
	Est  int64
}

// TopK returns the current top-k tracked candidates in decreasing |Est|
// order, re-estimating each item against the final sketch state. It panics
// if the sketch was not built with NewCountSketchTopK.
func (cs *CountSketch) TopK() []Candidate {
	if cs.topK == nil {
		panic("sketch: TopK called on a CountSketch without a tracker")
	}
	items := cs.topK.items()
	out := make([]Candidate, len(items))
	for i, est := range cs.estimates(items) {
		out[i] = Candidate{Item: items[i], Est: est}
	}
	slices.SortFunc(out, byAbsEstDesc)
	return out
}

// byAbsEstDesc orders candidates by decreasing |Est|.
func byAbsEstDesc(a, b Candidate) int {
	return cmp.Compare(util.SatAbsInt64(b.Est), util.SatAbsInt64(a.Est))
}

// Merge adds the counters of other into cs and, when both track
// candidates, merges the trackers: other's candidates are offered against
// the merged counters, then cs's own survivors are re-scored against them,
// so a candidate heavy in either shard (or only in the union) competes on
// its merged estimate. Both sketches must have been created with identical
// dimensions and the same seed stream (linearity of the sketch); Merge
// returns an error otherwise. Merging sketches with different hash
// functions would silently produce garbage, so dimensions are checked and
// callers are responsible for seed discipline.
//
// Two sparse sketches merge as tables (other's cached hashes come along:
// same seed, same hashes), materializing if the union outgrows a table;
// a sparse other adds its table into a dense cs; a dense other makes cs
// dense first.
func (cs *CountSketch) Merge(other *CountSketch) error {
	if cs.rows != other.rows || cs.buckets != other.buckets {
		return fmt.Errorf("sketch: merge dimension mismatch (%dx%d vs %dx%d)",
			cs.rows, cs.buckets, other.rows, other.buckets)
	}
	if other.flat != nil {
		if cs.flat == nil {
			cs.materialize()
		}
		for i, v := range other.flat {
			cs.flat[i] += v
		}
	} else {
		for e, it := range other.tab.items {
			d := other.tab.counts[e]
			if cs.flat == nil {
				last, fresh, ok := cs.tab.add(it, d)
				if fresh {
					for j, h := range other.tab.hashes {
						cs.tab.place(last, j, h[e])
					}
				}
				if ok {
					continue
				}
				cs.materialize()
			}
			for j, h := range other.tab.hashes {
				p := h[e]
				cs.flat[uint64(j)*cs.buckets+uint64(p>>1)] += signed(p, d)
			}
		}
	}
	if cs.topK != nil && other.topK != nil {
		// Offers move no counter, so each list is estimated in one go.
		theirs := other.topK.items()
		for i, est := range cs.estimates(theirs) {
			cs.topK.offer(theirs[i], est)
		}
		ours := cs.topK.items()
		for i, est := range cs.estimates(ours) {
			cs.topK.offer(ours[i], est)
		}
	}
	return nil
}

// topTracker keeps the k items with the largest |estimate| offered so far.
// It is a small indexed min-heap keyed by |estimate|. Scores live inside
// the heap entries, so sift comparisons are array reads, and the item →
// heap-index lookup is a probe of a flat table a few cache lines long.
type topTracker struct {
	k    int
	heap []topEntry // min-heap on score
	// pos indexes the heap by item: an open-addressed, linear-probe table
	// over mix64(item), pos[s] = heap index + 1 (0 = empty). It holds at
	// most k entries in ≥ 4k power-of-two slots; eviction removes one by
	// backward-shift, so there are no tombstones and probes stay short.
	// At most one slot in four is taken because the batch walk asks
	// tracked() of nearly every item of a stream, nearly always to hear no:
	// whether the first slot is empty is then a branch the CPU mostly
	// predicts. At one slot in two the mispredictions cost lib-uniform a
	// tenth of its throughput; one in eight bought 3% more for twice the
	// table, which is 16 bytes per candidate as it is.
	pos []int32
}

// topEntry is one tracked candidate: the item, |estimate| at last offer,
// and the pos slot that points back at it (what a sift updates without
// hashing).
type topEntry struct {
	item  uint64
	score int64
	slot  int32
}

func newTopTracker(k int) *topTracker {
	return &topTracker{k: k, pos: make([]int32, util.NextPow2(uint64(4*k)))}
}

// tracked reports whether item is in the heap.
func (t *topTracker) tracked(item uint64) bool {
	mask := uint64(len(t.pos) - 1)
	for s := mix64(item) & mask; t.pos[s] != 0; s = (s + 1) & mask {
		if t.heap[t.pos[s]-1].item == item {
			return true
		}
	}
	return false
}

func (t *topTracker) offer(item uint64, est int64) {
	a := util.SatAbsInt64(est)
	mask := uint64(len(t.pos) - 1)
	s := mix64(item) & mask
	for ; t.pos[s] != 0; s = (s + 1) & mask {
		if idx := int(t.pos[s]) - 1; t.heap[idx].item == item {
			t.heap[idx].score = a
			t.fix(idx)
			return
		}
	}
	// Not tracked; s is the empty slot the probe for item ended on.
	if len(t.heap) < t.k {
		t.heap = append(t.heap, topEntry{item: item, score: a, slot: int32(s)})
		t.pos[s] = int32(len(t.heap))
		t.up(len(t.heap) - 1)
		return
	}
	if a <= t.heap[0].score {
		return
	}
	t.unindex(uint64(t.heap[0].slot))
	// The shift may have filled s or emptied a slot before it: probe again.
	for s = mix64(item) & mask; t.pos[s] != 0; s = (s + 1) & mask {
	}
	t.heap[0] = topEntry{item: item, score: a, slot: int32(s)}
	t.pos[s] = 1
	t.down(0)
}

// unindex empties slot hole and closes the gap: each later entry of the
// probe run moves back into the hole unless that would put it before its
// home slot, and the slot it leaves becomes the hole.
func (t *topTracker) unindex(hole uint64) {
	mask := uint64(len(t.pos) - 1)
	t.pos[hole] = 0
	for s := (hole + 1) & mask; t.pos[s] != 0; s = (s + 1) & mask {
		e := &t.heap[t.pos[s]-1]
		if home := mix64(e.item) & mask; (s-home)&mask < (s-hole)&mask {
			continue // home lies after the hole: the entry stays reachable
		}
		t.pos[hole], t.pos[s] = t.pos[s], 0
		e.slot = int32(hole)
		hole = s
	}
}

func (t *topTracker) items() []uint64 {
	out := make([]uint64, len(t.heap))
	for i, e := range t.heap {
		out[i] = e.item
	}
	return out
}

func (t *topTracker) less(i, j int) bool {
	return t.heap[i].score < t.heap[j].score
}

func (t *topTracker) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.pos[t.heap[i].slot] = int32(i) + 1
	t.pos[t.heap[j].slot] = int32(j) + 1
}

func (t *topTracker) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(i, p) {
			break
		}
		t.swap(i, p)
		i = p
	}
}

func (t *topTracker) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && t.less(l, m) {
			m = l
		}
		if r < n && t.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		t.swap(i, m)
		i = m
	}
}

func (t *topTracker) fix(i int) {
	t.up(i)
	t.down(i)
}
