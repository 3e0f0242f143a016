package xhash

import (
	"math/bits"

	"repro/internal/util"
	"repro/internal/wire"
)

// MersennePrime61 is the modulus 2^61 - 1 used by every family in this
// package.
const MersennePrime61 uint64 = (1 << 61) - 1

// MulMod returns (a * b) mod (2^61 - 1) using 128-bit intermediate
// arithmetic followed by Mersenne reduction. With AddMod it is the fully
// reduced arithmetic Poly.Hash is written in — the definition the lazily
// reduced row kernel (HornerStep, Reduce) is tested against.
func MulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo. With p = 2^61 - 1, 2^61 ≡ 1 (mod p), so
	// 2^64 ≡ 8 (mod p). Fold: result = hi*8 + lo (mod p), and lo itself
	// folds as (lo >> 61) + (lo & p). The folded sum is at most
	// (p) + 7 + (p) + 63 < 3p, so two conditional subtractions reduce it.
	r := (lo & MersennePrime61) + (lo >> 61)
	r += (hi << 3) & MersennePrime61
	r += hi >> 58
	if r >= MersennePrime61 {
		r -= MersennePrime61
	}
	if r >= MersennePrime61 {
		r -= MersennePrime61
	}
	return r
}

// AddMod returns (a + b) mod (2^61 - 1) for a, b < 2^61 - 1.
func AddMod(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// Poly is a polynomial hash h(x) = c[0] + c[1] x + ... + c[k-1] x^(k-1)
// mod (2^61 - 1). A polynomial with k random coefficients is a k-wise
// independent family.
type Poly struct {
	coeff []uint64
}

// NewPoly draws a fresh degree-(k-1) polynomial (k coefficients) using rng.
// It panics if k < 1.
func NewPoly(k int, rng *util.SplitMix64) *Poly {
	if k < 1 {
		panic("xhash: polynomial needs at least one coefficient")
	}
	coeff := make([]uint64, k)
	for i := range coeff {
		coeff[i] = rng.Uint64n(MersennePrime61)
	}
	// Force the leading coefficient nonzero so the family has full degree.
	if k > 1 && coeff[k-1] == 0 {
		coeff[k-1] = 1
	}
	return &Poly{coeff: coeff}
}

// Fingerprint folds the polynomial's coefficients into the digest h.
// Two polynomials drawn from the same rng state fold identically, so
// fingerprints implement the checked seed-discipline of the wire format.
func (p *Poly) Fingerprint(h uint64) uint64 {
	h = wire.Fingerprint(h, uint64(len(p.coeff)))
	for _, c := range p.coeff {
		h = wire.Fingerprint(h, c)
	}
	return h
}

// AppendCoeffs appends the polynomial's coefficients (c[0] first) to dst
// and returns the extended slice. Callers that evaluate many polynomials
// in a tight loop — the CountSketch row walk — flatten all coefficients
// into one contiguous array at construction time and run Horner's rule
// inline with HornerStep/Reduce, avoiding the per-evaluation pointer chase
// through Poly. The appended values are exactly the ones Hash uses, so an
// inline evaluation reproduces Hash bit for bit.
func (p *Poly) AppendCoeffs(dst []uint64) []uint64 {
	return append(dst, p.coeff...)
}

// Hash evaluates the polynomial at x (reduced mod p first) via Horner's rule.
// The result lies in [0, 2^61 - 1).
func (p *Poly) Hash(x uint64) uint64 {
	x %= MersennePrime61
	acc := uint64(0)
	for i := len(p.coeff) - 1; i >= 0; i-- {
		acc = AddMod(MulMod(acc, x), p.coeff[i])
	}
	return acc
}

// lazy is Hash without its reductions: xp is x already reduced mod
// 2^61-1, and the value is only congruent to Hash(x) and below 2^63 (a
// HornerStep chain; Reduce makes it Hash(x)).
func (p *Poly) lazy(xp uint64) uint64 {
	acc := p.coeff[len(p.coeff)-1]
	for i := len(p.coeff) - 2; i >= 0; i-- {
		acc = HornerStep(acc, xp, p.coeff[i])
	}
	return acc
}

// Buckets is a k-wise independent hash into a fixed number of buckets.
type Buckets struct {
	poly *Poly
	b    uint64
}

// NewBuckets returns a k-wise independent hash mapping keys to [0, b).
// It panics if b == 0.
func NewBuckets(k int, b uint64, rng *util.SplitMix64) *Buckets {
	if b == 0 {
		panic("xhash: zero buckets")
	}
	return &Buckets{poly: NewPoly(k, rng), b: b}
}

// Hash maps x to a bucket in [0, b).
func (h *Buckets) Hash(x uint64) uint64 {
	return h.poly.Hash(x) % h.b
}

// AppendCoeffs appends the underlying polynomial's coefficients to dst;
// see Poly.AppendCoeffs. The bucket reduction (mod b) is not part of the
// coefficients and must be applied by the inline evaluator.
func (h *Buckets) AppendCoeffs(dst []uint64) []uint64 {
	return h.poly.AppendCoeffs(dst)
}

// Sign is a k-wise independent hash into {-1, +1}, the ξ function of
// CountSketch and the AMS sketch.
type Sign struct {
	poly *Poly
}

// NewSign returns a k-wise independent ±1 hash. CountSketch and AMS require
// k = 4 for their variance bounds.
func NewSign(k int, rng *util.SplitMix64) *Sign {
	return &Sign{poly: NewPoly(k, rng)}
}

// Fingerprint folds the sign hash's polynomial into the digest.
func (h *Sign) Fingerprint(d uint64) uint64 {
	return h.poly.Fingerprint(d)
}

// AppendCoeffs appends the underlying polynomial's coefficients to dst;
// see Poly.AppendCoeffs. The sign is the low bit of the polynomial value
// (1 → +1, 0 → −1) and must be applied by the inline evaluator.
func (h *Sign) AppendCoeffs(dst []uint64) []uint64 {
	return h.poly.AppendCoeffs(dst)
}

// Bucket maps x to one of b buckets from the SAME polynomial value whose
// low bit is Hash's sign: bit 0 is the sign, the bits above it, mod b, the
// bucket. The value is uniform over [0, 2^61-1) up to one part in 2^61, so
// for b up to 2^31 the pair (bucket, sign) is within 2^-29 of uniform over
// [0, b) x {-1, +1} — 2^-48 at the few thousand buckets a sketch has —
// and, the family being k-wise independent, the pairs of any k items are
// independent: one 4-wise polynomial serves CountSketch as both its
// pairwise bucket hash and its 4-wise sign hash.
func (h *Sign) Bucket(x, b uint64) uint64 {
	return h.poly.Hash(x) >> 1 % b
}

// Hash maps x to -1 or +1.
func (h *Sign) Hash(x uint64) int64 {
	// Use the low bit of the polynomial value. The polynomial value is
	// (close to) uniform over GF(p), so the low bit is (close to) unbiased.
	if h.poly.Hash(x)&1 == 1 {
		return 1
	}
	return -1
}

// Bernoulli is a k-wise independent hash into {0, 1} with success
// probability numer/denom. It implements the pairwise-independent Bernoulli
// variables used by the recursive sketch's subsampling and by the nearly
// periodic heavy-hitter algorithm of Appendix D.1.
type Bernoulli struct {
	poly  *Poly
	numer uint64
	denom uint64
}

// NewBernoulli returns a k-wise independent Bernoulli(numer/denom) hash.
// It panics if denom == 0 or numer > denom.
func NewBernoulli(k int, numer, denom uint64, rng *util.SplitMix64) *Bernoulli {
	if denom == 0 || numer > denom {
		panic("xhash: invalid Bernoulli parameters")
	}
	return &Bernoulli{poly: NewPoly(k, rng), numer: numer, denom: denom}
}

// Fingerprint folds the Bernoulli parameters and polynomial into the
// digest.
func (h *Bernoulli) Fingerprint(d uint64) uint64 {
	return h.poly.Fingerprint(wire.Fingerprint(wire.Fingerprint(d, h.numer), h.denom))
}

// Hash reports whether x is selected (probability numer/denom over the
// random draw of the family).
func (h *Bernoulli) Hash(x uint64) bool {
	return h.selects(h.poly.lazy(x%MersennePrime61)) == 1
}

// selects is the one definition of membership: v is the lazily reduced
// value of the family's polynomial at an item, and the item is selected
// (1) if the canonical value, scaled from [0, p) into [0, denom), is
// below numer, and not (0) otherwise. The scaling is a mask when denom is
// a power of two — every subsampling hash of the recursive sketch is
// Bernoulli(1/2) — and a division for any other denom; the comparison is
// a borrow, not a branch: the bit is a coin.
func (h *Bernoulli) selects(v uint64) uint64 {
	v = Reduce(v)
	if d := h.denom; d&(d-1) == 0 {
		v &= d - 1
	} else {
		v %= d
	}
	_, below := bits.Sub64(v, h.numer, 0)
	return below
}

// Filter is Hash over a selection of a batch: xs[i] is the value mod
// 2^61-1 of the batch's item i, sel lists positions into xs, and Filter
// returns — in sel's own storage, order kept — the positions whose items
// the family selects. Survivors are compacted without a branch (the
// selection bit is a coin): every position is copied down to the write
// position, which only moves on for a survivor. A pairwise family (k = 2,
// every subsampling hash) is one Horner step from coefficients held in
// registers, and the items of a batch do not wait on each other; any
// other k walks its chain.
func (h *Bernoulli) Filter(xs []uint64, sel []int32) []int32 {
	n := 0
	if c := h.poly.coeff; len(c) == 2 {
		c0, c1 := c[0], c[1]
		for _, i := range sel {
			sel[n] = i
			n += int(h.selects(HornerStep(c1, xs[i], c0)))
		}
		return sel[:n]
	}
	for _, i := range sel {
		sel[n] = i
		n += int(h.selects(h.poly.lazy(xs[i])))
	}
	return sel[:n]
}
