package experiments

// Appendix D.4: the discretized model of the function class and the
// counting argument (Theorem 57) showing that nearly periodic functions
// are vanishingly rare; experiment E13 runs it.
//
// The model fixes M, M' ∈ poly(n) and considers
//
//	GD = { g : [M]0 → [M']0 : g(0) = 0, g(1) = M', g(x) > 0 for x > 0 }.
//
// Bn ⊆ GD is the discretized analogue of the nearly periodic functions:
// (1) some pair has a (log n)^8 drop, and (2) every pair with at least a
// ½(log n)^8 drop nearly repeats at the reduction's offsets. Tn contains
// the witness family of Lemma 59 (functions with minimum value at least
// M'/log n, all of which are approximable in polylog space because every
// point query error is a relative error). Theorem 57: |Bn|/|Tn| <=
// 2^{-Ω(M log log n)}.

import (
	"math"

	"repro/internal/util"
)

// discreteFunc is a discretized function: Values[x] = g(x) for x in [0, M], with
// Values[0] = 0, Values[1] = M'.
type discreteFunc struct {
	Values []uint64 // length M+1
	MPrime uint64
}

// newDiscrete validates and wraps a value table.
func newDiscrete(values []uint64, mPrime uint64) discreteFunc {
	if len(values) < 2 {
		panic("experiments: need at least domain {0, 1}")
	}
	if values[0] != 0 {
		panic("experiments: g(0) must be 0")
	}
	if values[1] != mPrime {
		panic("experiments: g(1) must be M'")
	}
	for x := 1; x < len(values); x++ {
		if values[x] == 0 {
			panic("experiments: g(x) must be positive for x > 0")
		}
	}
	return discreteFunc{Values: values, MPrime: mPrime}
}

// randomDiscrete samples a uniform element of GD: g(x) uniform in [1, M'] for
// x in [2, M], pinned g(0)=0, g(1)=M'.
func randomDiscrete(m int, mPrime uint64, rng *util.SplitMix64) discreteFunc {
	values := make([]uint64, m+1)
	values[1] = mPrime
	for x := 2; x <= m; x++ {
		values[x] = 1 + rng.Uint64n(mPrime)
	}
	return discreteFunc{Values: values, MPrime: mPrime}
}

// m returns the domain bound.
func (f discreteFunc) m() int { return len(f.Values) - 1 }

// inTn reports membership in the Lemma 59 witness family: every positive
// value at least M'/log n. Such functions have g(x)/g(y) <= log n for all
// x, y >= 1, so a CountSketch estimate with small relative frequency error
// yields a small relative g-SUM error: approximable in O(log³n log M)
// bits.
func (f discreteFunc) inTn(logN float64) bool {
	floor := float64(f.MPrime) / logN
	for x := 1; x < len(f.Values); x++ {
		if float64(f.Values[x]) < floor {
			return false
		}
	}
	return true
}

// inBn reports membership in the discretized nearly periodic class:
//
//  1. ∃ x, y ∈ [M]: g(x) >= (log n)^8 g(y), and
//  2. ∀ x, y ∈ [M] with g(x) >= ½(log n)^8 g(y):
//     |g(x) - g(|y-x|)| < g(x)/log²n, and
//     if x+y <= M, |g(x+y) - g(x)| < g(x)/log²n
//
// (the two offsets are where the turnstile INDEX reduction of
// Proposition 60 lands; |y-x| = 0 and x+y = x cases are vacuous).
func (f discreteFunc) inBn(logN float64) bool {
	drop := math.Pow(logN, 8)
	rel := 1 / (logN * logN)
	m := f.m()

	hasDrop := false
	g := func(x int) float64 { return float64(f.Values[x]) }
	// Track min and max over [1, M] for the drop existence check.
	minV, maxV := math.Inf(1), 0.0
	for x := 1; x <= m; x++ {
		v := g(x)
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	hasDrop = maxV >= drop*minV
	if !hasDrop {
		return false
	}
	for x := 1; x <= m; x++ {
		gx := g(x)
		for y := 1; y <= m; y++ {
			if y == x {
				continue
			}
			if gx < drop/2*g(y) {
				continue
			}
			d := x - y
			if d < 0 {
				d = -d
			}
			if d >= 1 && math.Abs(gx-g(d)) >= rel*gx {
				return false
			}
			if x+y <= m && math.Abs(g(x+y)-gx) >= rel*gx {
				return false
			}
		}
	}
	return true
}

// countDiscrete Monte-Carlo samples GD and returns the observed fractions
// of Bn-like and Tn functions. For laptop-scale parameters the Bn fraction
// is (usually exactly) zero — which is Theorem 57's content; the table in
// experiment E13 reports the counts alongside the analytic bound.
func countDiscrete(m int, mPrime uint64, logN float64, samples int, rng *util.SplitMix64) (bn, tn int) {
	for i := 0; i < samples; i++ {
		f := randomDiscrete(m, mPrime, rng)
		if f.inBn(logN) {
			bn++
		}
		if f.inTn(logN) {
			tn++
		}
	}
	return bn, tn
}

// theoremBoundLogRatio returns log2 of the Theorem 57 bound on |Bn|/|Tn|,
// combining Lemma 62's upper bound on |Bn| (in the proof's final form,
// with the Lemma 61 matching of size W = M/8 - 1 forcing W coordinates
// into windows of width 2M'/log²n)
//
//	|Bn| <= (M·M') · 2^M · M'^{M-W} · (2M'/log²n)^W
//
// with Lemma 59's lower bound |Tn| >= (M' - M'/log n)^{M-1}. The exponent
// is -Ω(M log log n): it turns negative once log2 log n exceeds ~4.5 and
// then decreases linearly in M.
func theoremBoundLogRatio(m int, mPrime uint64, logN float64) float64 {
	mp := float64(mPrime)
	mf := float64(m)
	w := mf/8 - 1
	if w < 0 {
		w = 0
	}
	logBn := math.Log2(mf) + math.Log2(mp) + mf + mf*math.Log2(mp) +
		w*(1-2*math.Log2(logN))
	logTn := (mf - 1) * math.Log2(mp-mp/logN)
	return logBn - logTn
}

// matchedPair is a (value, partner) pair from the Lemma 61 matching.
type matchedPair struct {
	I, D uint64 // the pair (i, |i - j|)
}

// distinctPairMatching implements Lemma 61: given S ⊆ [M] and j, find a
// set W of pairs (i, |i-j|) with i ∈ S such that ALL values appearing in
// W (both coordinates) are distinct, with |W| >= |S|/4 - 1. The
// construction follows the proof: build the functional graph i -> |i-j|
// on S \ {j, j/2}, break in-degree-2 vertices (preferring to delete
// cyclic edges), and take a maximal matching on the remaining paths.
func distinctPairMatching(s []uint64, j uint64) []matchedPair {
	// candidate edges
	type edge struct{ from, to uint64 }
	var edges []edge
	inDeg := make(map[uint64][]int) // to -> edge indices
	seen := make(map[uint64]bool)
	for _, i := range s {
		if i == j || 2*i == j || seen[i] {
			continue
		}
		seen[i] = true
		var d uint64
		if i > j {
			d = i - j
		} else {
			d = j - i
		}
		if d == 0 || d == i {
			continue
		}
		edges = append(edges, edge{from: i, to: d})
		inDeg[d] = append(inDeg[d], len(edges)-1)
	}
	// Break in-degree-2 targets: delete one incident edge, preferring an
	// edge that forms a 2-cycle (from < to per the proof's tie-break).
	deleted := make([]bool, len(edges))
	for _, idxs := range inDeg {
		if len(idxs) < 2 {
			continue
		}
		// delete all but one
		kept := false
		for _, ei := range idxs {
			if !kept {
				kept = true
				continue
			}
			deleted[ei] = true
		}
	}
	// Greedy maximal matching on remaining edges with globally distinct
	// values.
	used := make(map[uint64]bool)
	var out []matchedPair
	for ei, e := range edges {
		if deleted[ei] || used[e.from] || used[e.to] {
			continue
		}
		used[e.from] = true
		used[e.to] = true
		out = append(out, matchedPair{I: e.from, D: e.to})
	}
	return out
}
