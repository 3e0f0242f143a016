package sketch

import (
	"fmt"
	"sort"

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
type CountSketch struct {
	rows    int
	buckets uint64
	// flat is the contiguous r*b counter matrix; counts[j] is the row-j
	// view flat[j*b:(j+1)*b]. One backing array keeps row walks
	// cache-friendly and lets Merge and EstimateF2 run a single loop.
	flat   []int64
	counts [][]int64
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
	cs := &CountSketch{
		rows:    r,
		buckets: b,
		flat:    make([]int64, uint64(r)*b),
		counts:  make([][]int64, r),
		hash:    newRowHashes(r, b, rng),
		scratch: make([]int64, r),
	}
	for j := 0; j < r; j++ {
		cs.counts[j] = cs.flat[uint64(j)*b : uint64(j+1)*b : uint64(j+1)*b]
	}
	return cs
}

// ShareRowHashes makes cs evaluate other's row-hash family instead of the
// one it drew, and reports whether it could: the two must have the same
// dimensions. It is for construction time, before cs has counted
// anything. A recursive stack shares level 0's family among its levels:
// an item that reaches levels 0…k is then hashed once, not k+1 times
// (Batch.hashed). Theorem 13 permits it — each level's CountSketch
// guarantee is over this family given the level's substream, which is a
// function of the subsampling hashes alone, and the levels' failure events
// are combined by a union bound, which asks nothing of their joint
// distribution (EXPERIMENTS.md, "Spending the ledger, round 3").
func (cs *CountSketch) ShareRowHashes(other *CountSketch) bool {
	if cs.rows != other.rows || cs.buckets != other.buckets {
		return false
	}
	cs.hash = other.hash
	return true
}

// rowBucketSign evaluates row j's bucket index and ±1 sign for xp (the
// item already reduced mod 2^61-1) from the flat coefficient cache. It
// reproduces sign[j].Bucket and sign[j].Hash exactly: a degree-3 Horner
// evaluation over GF(2^61-1), lazily reduced (see xhash.HornerStep) with
// only the final value made canonical.
func (f *rowHashes) rowBucketSign(j int, xp uint64) (uint64, int64) {
	c := f.coef[coefPerRow*j : coefPerRow*j+coefPerRow : coefPerRow*j+coefPerRow]
	v := xhash.HornerStep(c[3], xp, c[2])
	v = xhash.HornerStep(v, xp, c[1])
	v = xhash.HornerStep(v, xp, c[0])
	p := packed(xhash.Reduce(v), f.buckets)
	return uint64(p >> 1), signed(p, 1)
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

// SpaceBytes returns the counter storage in bytes (the quantity the paper's
// space bounds govern; hash seeds are O(1) words each).
func (cs *CountSketch) SpaceBytes() int {
	return cs.rows * int(cs.buckets) * 8
}

// Update processes the turnstile update (item, delta).
func (cs *CountSketch) Update(item uint64, delta int64) {
	xp := item % xhash.MersennePrime61
	b, f := cs.buckets, cs.hash
	for j := 0; j < cs.rows; j++ {
		h, s := f.rowBucketSign(j, xp)
		cs.flat[uint64(j)*b+h] += s * delta
	}
	if cs.topK != nil {
		cs.topK.offer(item, cs.Estimate(item))
	}
}

// Estimate returns the point query v̂_item: the median over rows of
// sign(item) * counter[bucket(item)]. It is allocation-free (point queries
// run on every update when top-k tracking is enabled).
func (cs *CountSketch) Estimate(item uint64) int64 {
	xp := item % xhash.MersennePrime61
	b, f := cs.buckets, cs.hash
	for j := 0; j < cs.rows; j++ {
		h, s := f.rowBucketSign(j, xp)
		cs.scratch[j] = s * cs.flat[uint64(j)*b+h]
	}
	return median(cs.scratch)
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
// DESIGN.md records this substitution; the standalone AMS sketch remains
// available and is validated against this estimator in the tests.
func (cs *CountSketch) EstimateF2() float64 {
	ests := make([]float64, cs.rows)
	for j := 0; j < cs.rows; j++ {
		var sum float64
		for _, c := range cs.counts[j] {
			fc := float64(c)
			sum += fc * fc
		}
		ests[j] = sum
	}
	return util.MedianFloat64(ests)
}

// EstimateMean returns the mean-over-rows point query, the ablation
// comparison to the median combiner (DESIGN.md choice 2). The mean is
// unbiased but has heavier tails.
func (cs *CountSketch) EstimateMean(item uint64) float64 {
	xp := item % xhash.MersennePrime61
	var sum float64
	for j := 0; j < cs.rows; j++ {
		h, s := cs.hash.rowBucketSign(j, xp)
		sum += float64(s * cs.flat[uint64(j)*cs.buckets+h])
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
	out := make([]Candidate, 0, len(items))
	for _, it := range items {
		out = append(out, Candidate{Item: it, Est: cs.Estimate(it)})
	}
	sort.Slice(out, func(i, j int) bool {
		return util.SatAbsInt64(out[i].Est) > util.SatAbsInt64(out[j].Est)
	})
	return out
}

// HeavyCandidates scans an explicit domain slice and returns the k items
// with the largest estimated |frequency|. It is the offline extraction used
// when the candidate domain is known (e.g., the recursive sketch's sampled
// sub-universe).
func (cs *CountSketch) HeavyCandidates(domain []uint64, k int) []Candidate {
	out := make([]Candidate, 0, len(domain))
	for _, it := range domain {
		out = append(out, Candidate{Item: it, Est: cs.Estimate(it)})
	}
	sort.Slice(out, func(i, j int) bool {
		return util.SatAbsInt64(out[i].Est) > util.SatAbsInt64(out[j].Est)
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Merge adds the counters of other into cs. Both sketches must have been
// created with identical dimensions and the same seed stream (linearity of
// the sketch); Merge returns an error otherwise. Merging sketches with
// different hash functions would silently produce garbage, so dimensions
// are checked and callers are responsible for seed discipline.
func (cs *CountSketch) Merge(other *CountSketch) error {
	if cs.rows != other.rows || cs.buckets != other.buckets {
		return fmt.Errorf("sketch: merge dimension mismatch (%dx%d vs %dx%d)",
			cs.rows, cs.buckets, other.rows, other.buckets)
	}
	for i, v := range other.flat {
		cs.flat[i] += v
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
