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

// Items returns the item identities in the cover.
func (c Cover) Items() []uint64 {
	out := make([]uint64, len(c))
	for i, e := range c {
		out[i] = e.Item
	}
	return out
}

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

// dims computes CountSketch dimensions for a heavy-hitter configuration:
// rows from the failure probability, buckets from the heaviness and
// envelope parameters. widthFactor scales the bucket count (experiments
// sweep it; 1.0 is the theoretically shaped default).
func dims(lambda, eps, delta, h, widthFactor float64) (rows int, buckets uint64, topk int) {
	if lambda <= 0 || lambda > 1 {
		panic("heavy: lambda must be in (0, 1]")
	}
	if h < 1 {
		h = 1
	}
	rows = int(math.Ceil(2 * math.Log(2/delta)))
	if rows < 5 {
		rows = 5
	}
	if rows%2 == 0 {
		rows++ // odd row count gives a true median
	}
	// Buckets: a λ/H-heavy item for F2 has v² >= (λ/H) F2, and the point
	// query errs by ~ sqrt(F2/b), so identification needs b ≳ 16 H/λ and
	// (1±ε) frequency accuracy on heavy items needs b ≳ H/(λ ε²).
	b := widthFactor * math.Max(16*h/lambda, h/(lambda*eps*eps))
	if b < 8 {
		b = 8
	}
	buckets = util.NextPow2(uint64(b))
	// Candidates tracked: all items that could be λ/H-heavy for F2.
	topk = int(math.Ceil(2*h/lambda)) + 1
	return rows, buckets, topk
}
