package experiments

// Section 1.1.4's construction, which experiment E11 runs: reducing a
// function of a frequency *matrix* to a function of a single variable.
//
// Given frequencies f_{i,j} with i ∈ [n], j ∈ [k], and 0 <= f_{i,j} < b,
// an update to coordinate (i, j) is replaced by b^j copies of item i. The
// packed frequency f'_i then carries (f_{i,1}, ..., f_{i,k}) as its base-b
// expansion, so Σ_i g(f_{i,1}, ..., f_{i,k}) = Σ_i g'(f'_i) for
// g'(x) = g(digits_b(x)).
//
// The paper's point: even for well-behaved g, the induced g' has high
// local variability (adding 1 to the packed value changes the low digit
// completely), so g' is typically not predictable — one-pass algorithms
// fail (Lemma 25), while the two-pass algorithm is insensitive to local
// variability and still works.

import (
	"fmt"
	"math"

	"repro/internal/gfunc"
)

// packing describes a base-b, k-attribute packing. The packed values range
// in [0, b^k), so b^k must stay within the poly(n) frequency bound.
type packing struct {
	Base uint64 // b >= 2
	K    int    // number of attributes
}

// newPacking validates and returns a packing. It returns an error when the
// packed range would overflow int64 (the turnstile frequency type).
func newPacking(base uint64, k int) (packing, error) {
	if base < 2 || k < 1 {
		return packing{}, fmt.Errorf("experiments: need base >= 2 and k >= 1, got b=%d k=%d", base, k)
	}
	limit := uint64(1)
	for j := 0; j < k; j++ {
		if limit > (1<<62)/base {
			return packing{}, fmt.Errorf("experiments: b^k = %d^%d overflows the frequency range", base, k)
		}
		limit *= base
	}
	return packing{Base: base, K: k}, nil
}

// maxPacked returns b^k - 1, the largest packed frequency.
func (p packing) maxPacked() uint64 {
	v := uint64(1)
	for j := 0; j < p.K; j++ {
		v *= p.Base
	}
	return v - 1
}

// deltaFor returns the single-variable update weight for an update to
// attribute j: b^j copies of the item. It panics if j is out of range.
func (p packing) deltaFor(j int) int64 {
	if j < 0 || j >= p.K {
		panic(fmt.Sprintf("experiments: attribute %d outside [0,%d)", j, p.K))
	}
	d := int64(1)
	for t := 0; t < j; t++ {
		d *= int64(p.Base)
	}
	return d
}

// pack packs an attribute vector into a single frequency. It panics if any
// digit is outside [0, b) or the vector length differs from K.
func (p packing) pack(digits []uint64) uint64 {
	if len(digits) != p.K {
		panic(fmt.Sprintf("experiments: got %d digits, want %d", len(digits), p.K))
	}
	var v, mul uint64 = 0, 1
	for j := 0; j < p.K; j++ {
		if digits[j] >= p.Base {
			panic(fmt.Sprintf("experiments: digit %d >= base %d", digits[j], p.Base))
		}
		v += digits[j] * mul
		mul *= p.Base
	}
	return v
}

// unpack recovers the attribute vector from a packed frequency.
func (p packing) unpack(x uint64) []uint64 {
	out := make([]uint64, p.K)
	for j := 0; j < p.K; j++ {
		out[j] = x % p.Base
		x /= p.Base
	}
	return out
}

// induced lifts a multivariate g to the single-variable g' of the
// construction, normalized into class G. The multivariate g must be
// positive on every nonzero digit vector and zero on the zero vector.
func (p packing) induced(name string, g func(digits []uint64) float64) gfunc.Func {
	return gfunc.Normalize(name, func(x uint64) float64 {
		if x > p.maxPacked() {
			x = p.maxPacked()
		}
		return g(p.unpack(x))
	})
}

// localVariability measures max over sampled x in [m/8, m) of
// |g(x+1) - g(x)| / max(g(x), g(x+1)): the unit-step relative variation at
// scale. The lower cutoff excludes the trivial small-x region where every
// function varies (g(2)/g(1) is a constant-factor step even for x²); what
// predictability cares about is variation that persists as x grows.
// induced functions score near 1 (a +1 update rewrites the low digit),
// while smooth functions score near 0 — the quantitative form of "g' is
// very likely not predictable".
func localVariability(g gfunc.Func, m uint64) float64 {
	lo := m / 8
	if lo < 8 {
		lo = 8
	}
	worst := 0.0
	for _, x := range gfunc.Grid(m-1, 2048) {
		if x < lo {
			continue
		}
		gx, gy := g.Eval(x), g.Eval(x+1)
		den := math.Max(gx, gy)
		if den <= 0 {
			continue
		}
		if v := math.Abs(gy-gx) / den; v > worst {
			worst = v
		}
	}
	return worst
}
