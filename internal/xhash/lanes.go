package xhash

import "math/bits"

// Lazily reduced GF(2^61-1) Horner evaluation, the arithmetic under the
// CountSketch row walk. MulMod and AddMod return canonical values and pay
// three conditional subtractions per Horner step for it; a polynomial
// evaluation only needs its LAST value canonical. HornerStep folds the
// 128-bit product once with the Mersenne identity and subtracts nothing,
// so intermediate values are merely congruent to what Poly.Hash holds at
// the same step, and Reduce canonicalises the final one: Reduce of a
// HornerStep chain equals Poly.Hash bit for bit (TestLazyKernelMatchesHash
// and FuzzLazyKernel hold them to it).
//
// HornerStep4 is the same step over four independent lanes. One chain is
// a sequence of dependent operations (widening multiply, fold, add) whose
// latency the CPU cannot hide; four independent chains give the
// out-of-order core work to interleave, so a row pass that hashes four
// items per step runs at multiply throughput instead of multiply latency.

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
// coefficient: acc[i] = HornerStep(acc[i], x[i], c). It is the inner step
// of evaluating one row's hash polynomial at four items at once.
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
