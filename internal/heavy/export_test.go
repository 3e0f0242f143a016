package heavy

import (
	"math"

	"repro/internal/gfunc"
	"repro/internal/util"
)

// SetSizing overrides dims' constants for the sizing frontier and returns
// the function that puts them back. rows is the row count outright,
// whatever δ says; width is in units of the shipped bucket terms, 16·H/λ
// and H/(λε²), before dims rounds up to a power of two; tracker is the
// candidate multiplier of H/λ. SetSizing(7, 1, 2) builds exactly what
// layout version 2 did at Algorithm 2's δ/2 = 0.1.
func SetSizing(rows int, width, tracker float64) (restore func()) {
	old := dimsSizing
	dimsSizing = sizing{rows: rows, idWidth: 16 * width, epsWidth: width, tracker: tracker}
	return func() { dimsSizing = old }
}

// The events CoverEvents scores a level-0 cover for, in its order.
const (
	EvH   = iota // every (g, λ)-heavy hitter in the cover, weight in 1 ± ε
	EvD          // Definition 12 in full: H, and every other cover entry in 1 ± ε too
	EvAgg        // H, and Σ|w − g(v)| over the cover ≤ εG: what Theorem 13's sum inherits
)

// CoverEvents scores a cover against the exact frequencies: want is
// ExactHeavy's answer and gsum the stream's g-SUM. The sizing frontier and
// TestOnePassCoverFindsExactHeavy count the same three events.
func CoverEvents(g gfunc.Func, cover, want Cover, freq func(item uint64) int64, eps, gsum float64) [3]bool {
	weight := make(map[uint64]float64, len(cover))
	h, d := true, true
	var off float64
	for _, e := range cover {
		weight[e.Item] = e.Weight
		truth := g.Eval(uint64(util.SatAbsInt64(freq(e.Item))))
		off += math.Abs(e.Weight - truth)
		if math.Abs(e.Weight-truth) > eps*truth {
			d = false
		}
	}
	for _, e := range want {
		if w, ok := weight[e.Item]; !ok || math.Abs(w-e.Weight) > eps*e.Weight {
			h = false
		}
	}
	return [3]bool{h, h && d, h && off <= eps*gsum}
}

// BinomialTail is P(Bin(n, p) ≥ k): the one binomial sum behind the rate
// test's floor and the frontier's confidence bounds.
func BinomialTail(n, k int, p float64) float64 {
	sum := 0.0
	for i := max(k, 0); i <= n; i++ {
		lc, _ := math.Lgamma(float64(n + 1))
		li, _ := math.Lgamma(float64(i + 1))
		lni, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lc - li - lni + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return sum
}
