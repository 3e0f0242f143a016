package heavy

import (
	"math"
	"sort"

	"repro/internal/gfunc"
	"repro/internal/sketch"
	"repro/internal/util"
)

// Entry is one element of a (g, λ, ε)-cover: an item believed heavy, its
// (approximate or exact) frequency, and the weight w ≈ g(|v_i|).
type Entry struct {
	Item   uint64
	Freq   int64
	Weight float64
}

// Cover is a (g, λ, ε)-cover (Definition 12): it contains every
// (g, λ)-heavy hitter, each with weight within (1±ε) of g(|v_i|).
type Cover []Entry

// Contains reports whether the cover includes the item.
func (c Cover) Contains(item uint64) bool {
	for _, e := range c {
		if e.Item == item {
			return true
		}
	}
	return false
}

// WeightSum returns Σ weights, the heavy part of the g-SUM.
func (c Cover) WeightSum() float64 {
	var s float64
	for _, e := range c {
		s += e.Weight
	}
	return s
}

// sortByWeight orders the cover by decreasing weight, breaking ties by item
// id for determinism.
func (c Cover) sortByWeight() {
	sort.Slice(c, func(i, j int) bool {
		if c[i].Weight != c[j].Weight {
			return c[i].Weight > c[j].Weight
		}
		return c[i].Item < c[j].Item
	})
}

// Sketcher is a one-pass heavy-hitter algorithm: it ingests turnstile
// updates and finalizes into a cover. The recursive sketch of Theorem 13
// composes per-level Sketchers into a g-SUM estimator.
type Sketcher interface {
	Update(item uint64, delta int64)
	// Cover finalizes and returns the (g, λ, ε)-cover. It may be called
	// once; behaviour of further Updates is undefined.
	Cover() Cover
	// SpaceBytes reports counter storage, the quantity the space bounds
	// govern.
	SpaceBytes() int
}

// CollapsedSketcher is a Sketcher that ingests a batch in collapsed form
// (sketch.Batch: distinct items, net deltas), as a level of a recursive
// stack is handed it: Apply must leave the counter state exactly as
// feeding Update the batch's updates would.
type CollapsedSketcher interface {
	Sketcher
	Apply(b *sketch.Batch)
}

// TwoPassSketcher is a two-pass heavy-hitter algorithm (Algorithm 1):
// the stream is presented once to Pass1 and then again to Pass2.
type TwoPassSketcher interface {
	Pass1(item uint64, delta int64)
	// FinishPass1 must be called between the passes; it extracts the
	// candidate set that Pass2 tabulates.
	FinishPass1()
	Pass2(item uint64, delta int64)
	Cover() Cover
	SpaceBytes() int
}

// ExactHeavy computes the exact (g, λ)-heavy hitters of a frequency vector
// per Definition 11: items j with g(|v_j|) >= λ Σ_{i≠j} g(|v_i|). The
// returned cover has exact frequencies and weights. It is the ground truth
// for recall experiments.
func ExactHeavy(g gfunc.Func, lambda float64, freqs map[uint64]int64) Cover {
	var total float64
	weights := make(map[uint64]float64, len(freqs))
	for it, f := range freqs {
		w := g.Eval(uint64(util.SatAbsInt64(f)))
		weights[it] = w
		total += w
	}
	var cover Cover
	for it, w := range weights {
		if w >= lambda*(total-w) && w > 0 {
			cover = append(cover, Entry{Item: it, Freq: freqs[it], Weight: w})
		}
	}
	cover.sortByWeight()
	return cover
}

// GSumExact computes Σ g(|v_i|) exactly from a frequency map.
func GSumExact(g gfunc.Func, freqs map[uint64]int64) float64 {
	var s float64
	for _, f := range freqs {
		s += g.Eval(uint64(util.SatAbsInt64(f)))
	}
	return s
}

// sizing holds dims' constants. The forms they sit in are the analysis';
// the values are priced — the sizing frontier (frontier_test.go) walked
// them down until the (ε, δ) guarantee stopped holding, EXPERIMENTS.md
// "Spending the ledger, round 4" — and one variable, so that the frontier's
// test-only hook can set them. Nothing else writes it.
type sizing struct {
	rows     int     // 0: from δ, as dims says; the hook sets a count outright
	idWidth  float64 // buckets: the larger of idWidth · H/λ (telling a heavy item from the
	epsWidth float64 // tail) and epsWidth · H/(λε²) (its frequency to 1±ε), rounded by dims
	tracker  float64 // candidates = ⌈tracker · H/λ⌉ + 1
}

var dimsSizing = sizing{
	// The analysis': a point query errs by about √(F2/b), so b ∝ H/λ finds
	// a λ/H-heavy item and b ∝ H/(λε²) reads it to 1±ε. Measured: sizing
	// v2's 16 and 1, kept. Every N = 2^14 cell clears 1 − δ at a quarter of
	// this width; the flat stream at N = 2^20 clears at half of it and
	// loses the aggregate on 40 seeds of 40 at a quarter (the pruning
	// window's residual, OnePass.ErrorWindow) — a 2x margin here, none at
	// half, which is also where the referee's short seeds and the sweep's
	// smoke matrix stop agreeing with their records.
	idWidth: 16, epsWidth: 1,
	// The analysis': at most H/λ items are λ/H-heavy for F2; twice that
	// rides out the tracker's churn. Measured to be the cheap side — a
	// stack's depth follows it (recursive.Depth), so half the tracker is
	// one more level of counters, and less accurate: v2's 2 stays.
	tracker: 2,
}

// dims computes CountSketch dimensions for a heavy-hitter configuration:
// rows from the failure probability, buckets from the heaviness and
// envelope parameters, by dimsSizing's forms.
//
// Rows are ⌈2 ln(1/δ)⌉, at least 5, made odd for a true median. The
// analysis': a median fails when half its rows do, so c·ln(1/δ). Measured:
// c = 2 — 5 rows at Algorithm 2's δ/2 = 0.1, where sizing v2's ⌈2 ln(2/δ)⌉
// gave 7 — and the floor: every N = 2^14 cell clears 1 − δ at 3 rows, the
// flat stream at N = 2^20 needs the 5.
//
// widthFactor scales the bucket count before the one rounding there is —
// up to a power of two (a row's bucket is a mask; at least 8) — so the
// sketch is never narrower than asked for, and factors less than 2x apart
// can build the same one.
func dims(lambda, eps, delta, h, widthFactor float64) (rows int, buckets uint64, topk int) {
	if lambda <= 0 || lambda > 1 {
		panic("heavy: lambda must be in (0, 1]")
	}
	if h < 1 {
		h = 1
	}
	z := dimsSizing
	if rows = z.rows; rows == 0 {
		rows = max(5, int(math.Ceil(2*math.Log(1/delta)))) | 1
	}
	b := widthFactor * math.Max(z.idWidth*h/lambda, z.epsWidth*h/(lambda*eps*eps))
	buckets = util.NextPow2(uint64(max(b, 8)))
	topk = int(math.Ceil(z.tracker*h/lambda)) + 1
	return rows, buckets, topk
}
