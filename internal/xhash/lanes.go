package xhash

import "math/bits"

// Lazily reduced GF(2^61-1) polynomial evaluation, the arithmetic under
// the CountSketch row walk and the subsampling cascade. MulMod and AddMod
// return canonical values and pay three conditional subtractions per
// Horner step for it; a polynomial evaluation only needs its LAST value
// canonical. HornerStep folds the 128-bit product once with the Mersenne
// identity and subtracts nothing, so intermediate values are merely
// congruent to what Poly.Hash holds at the same step, and Reduce
// canonicalises the final one: Reduce of a HornerStep chain equals
// Poly.Hash bit for bit (TestLazyKernelMatchesHash and FuzzLazyKernel
// hold them to it).
//
// One chain is a sequence of dependent operations (widening multiply,
// fold, add) whose latency the CPU cannot hide. The batch paths therefore
// avoid chains longer than one step: a pairwise polynomial (bucket hash,
// Bernoulli) IS one step, and the degree-3 sign polynomial is evaluated
// from the item's powers (Powers once per item, then Cubic: three
// independent multiplies), so a plain loop over the items of a batch
// runs at multiply throughput. HornerStep4, the step over four
// interleaved lanes that a three-step chain needed for the same effect,
// is kept for the benchmark's xhash.eval rung (bench/ladder.go), which
// replays that chain by hand.

// HornerStep returns a value congruent to acc*x + c mod 2^61-1 and below
// 2^63, for acc < 2^63 and x, c < 2^61.
//
// Bound: acc*x < 2^124, so with acc*x = hi*2^64 + lo, hi < 2^60. Since
// 2^61 ≡ 1, lo ≡ (lo & p) + (lo >> 61) and hi*2^64 = (hi<<3)*2^61 ≡
// ((hi<<3) & p) + (hi >> 58) — hi<<3 < 2^63 loses no bit. The four terms
// are at most p, 7, p and 3, so with c the sum is below 3*2^61 + 12 < 2^63:
// a valid acc for the next step, and no addition wraps.
func HornerStep(acc, x, c uint64) uint64 {
	hi, lo := bits.Mul64(acc, x)
	return (lo & MersennePrime61) + (lo >> 61) + ((hi << 3) & MersennePrime61) + (hi >> 58) + c
}

// HornerStep4 advances four Horner evaluations one step against a SHARED
// coefficient: acc[i] = HornerStep(acc[i], x[i], c) — one row's hash
// polynomial at four items at once.
func HornerStep4(acc, x *[4]uint64, c uint64) {
	acc[0] = HornerStep(acc[0], x[0], c)
	acc[1] = HornerStep(acc[1], x[1], c)
	acc[2] = HornerStep(acc[2], x[2], c)
	acc[3] = HornerStep(acc[3], x[3], c)
}

// Reduce returns v mod 2^61-1, the canonical value in [0, 2^61-1). The
// fold leaves at most p + 7, so one conditional subtraction finishes.
func Reduce(v uint64) uint64 {
	v = (v & MersennePrime61) + (v >> 61)
	if v >= MersennePrime61 {
		v -= MersennePrime61
	}
	return v
}

// Powers returns the canonical x² and x³ mod 2^61-1 of a canonical x:
// what Cubic needs beside x, computed once per item and shared by every
// polynomial evaluated at it.
func Powers(x uint64) (x2, x3 uint64) {
	x2 = Reduce(HornerStep(x, x, 0))
	return x2, Reduce(HornerStep(x2, x, 0))
}

// Cubic returns a value congruent to c3·x³ + c2·x² + c1·x + c0 mod 2^61-1,
// for coefficients below 2^61 and x, x2, x3 = x, Powers(x): the degree-3
// polynomial a three-step HornerStep chain evaluates, from its powers.
// The chain's steps wait on each other; the three products here do not.
// Reduce of either is Poly.Hash, both being exact mod p. The value is NOT
// a valid acc for a further HornerStep: it only has to fit a uint64, which
// is all Reduce asks.
//
// Bound: every factor is below 2^61, so each product hi*2^64 + lo is below
// 2^122 and hi < 2^58. As in HornerStep, lo ≡ (lo & p) + (lo >> 61), at
// most p + 7; and hi*2^64 = (hi<<3)*2^61 ≡ hi<<3, where the three hi sum
// to less than 3*2^58 before the shift, so nothing is lost and the term
// is below 3*2^61. With c0 the whole is below 3(p+7) + 3*2^61 + p <
// 7*2^61 < 2^64: no addition wraps.
//
// (Summing the products in 128 bits first and folding once is two
// operations shorter and puts the function over the inliner's budget; a
// call per row per item costs more than that.)
func Cubic(c0, c1, c2, c3, x, x2, x3 uint64) uint64 {
	h1, l1 := bits.Mul64(c1, x)
	h2, l2 := bits.Mul64(c2, x2)
	h3, l3 := bits.Mul64(c3, x3)
	return (l1&MersennePrime61 + l2&MersennePrime61 + l3&MersennePrime61) +
		(l1>>61 + l2>>61 + l3>>61) + (h1+h2+h3)<<3 + c0
}
