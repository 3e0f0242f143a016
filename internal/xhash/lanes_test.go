package xhash

import (
	"testing"

	"repro/internal/util"
)

// checkLazyKernel holds the lazily reduced kernel to the hash families:
// for a degree-1 bucket polynomial and a degree-3 sign polynomial with
// the given coefficients, Reduce of a HornerStep chain (scalar, and each
// lane of HornerStep4) is Poly.Hash, so reducing it mod b is Buckets.Hash
// — by a mask when b is a power of two — and its low bit is Sign.Hash, the
// bits above it mod b Sign.Bucket. The sign polynomial's is the evaluation
// sketch.CountSketch runs on every update. The
// batch walk's forms are held to the same references: the sign polynomial
// from the item's powers (Cubic), and Bernoulli membership (Hash, Filter)
// against Poly.Hash % denom < numer with b as the denominator — a
// pairwise family on the bucket coefficients, the four-coefficient chain
// on the sign's.
func checkLazyKernel(t *testing.T, coef [6]uint64, items [4]uint64, b uint64) {
	t.Helper()
	bucket := &Buckets{poly: &Poly{coeff: coef[:2]}, b: b}
	sign := &Sign{poly: &Poly{coeff: coef[2:]}}
	var xp [4]uint64
	for k, it := range items {
		xp[k] = it % MersennePrime61
	}
	bk := [4]uint64{coef[1], coef[1], coef[1], coef[1]}
	HornerStep4(&bk, &xp, coef[0])
	sg := [4]uint64{coef[5], coef[5], coef[5], coef[5]}
	HornerStep4(&sg, &xp, coef[4])
	HornerStep4(&sg, &xp, coef[3])
	HornerStep4(&sg, &xp, coef[2])
	for k, it := range items {
		sbk := HornerStep(coef[1], xp[k], coef[0])
		ssg := HornerStep(HornerStep(HornerStep(coef[5], xp[k], coef[4]), xp[k], coef[3]), xp[k], coef[2])
		if bk[k] != sbk || sg[k] != ssg {
			t.Fatalf("item %d lane %d: HornerStep4 (%d, %d) != HornerStep (%d, %d)", it, k, bk[k], sg[k], sbk, ssg)
		}
		if sbk >= 1<<63 || ssg >= 1<<63 {
			t.Fatalf("item %d: lazy value (%d, %d) not below 2^63", it, sbk, ssg)
		}
		h := Reduce(sbk)
		if want := bucket.poly.Hash(it); h != want {
			t.Fatalf("coef %v item %d: bucket polynomial %d, want %d", coef, it, h, want)
		}
		want := bucket.Hash(it)
		if h%b != want {
			t.Fatalf("coef %v item %d b %d: bucket %d, want %d", coef, it, b, h%b, want)
		}
		if b&(b-1) == 0 && h&(b-1) != want {
			t.Fatalf("coef %v item %d b %d: masked bucket %d, want %d", coef, it, b, h&(b-1), want)
		}
		if got, want := int64(Reduce(ssg)&1)<<1-1, sign.Hash(it); got != want {
			t.Fatalf("coef %v item %d: sign %d, want %d", coef, it, got, want)
		}
		// The sign polynomial's value is also the row's bucket hash: the
		// bits above the sign's, mod b — one mask over both for a
		// power-of-two b (what sketch.packed takes).
		if got, want := Reduce(ssg)>>1%b, sign.Bucket(it, b); got != want {
			t.Fatalf("coef %v item %d b %d: bucket from the sign value %d, want %d", coef, it, b, got, want)
		}
		if want := sign.Bucket(it, b); b&(b-1) == 0 && b <= 1<<31 && Reduce(ssg)&(2*b-1)>>1 != want {
			t.Fatalf("coef %v item %d b %d: masked bucket from the sign value %d, want %d", coef, it, b, Reduce(ssg)&(2*b-1)>>1, want)
		}
		x2, x3 := Powers(xp[k])
		if want := MulMod(xp[k], xp[k]); x2 != want || x3 != MulMod(want, xp[k]) {
			t.Fatalf("item %d: Powers (%d, %d), want (%d, %d)", it, x2, x3, want, MulMod(want, xp[k]))
		}
		if got, want := Reduce(Cubic(coef[2], coef[3], coef[4], coef[5], xp[k], x2, x3)), sign.poly.Hash(it); got != want {
			t.Fatalf("coef %v item %d: sign polynomial from powers %d, want %d", coef, it, got, want)
		}
	}
	for _, poly := range []*Poly{bucket.poly, sign.poly} {
		for _, numer := range []uint64{0, 1, b / 2, b - b/3, b} {
			h := &Bernoulli{poly: poly, numer: numer, denom: b}
			// Filter over a selection that skips lane 1: it must return the
			// selected lanes among 3, 2, 0, in that order.
			var want []int32
			for _, k := range []int32{3, 2, 0} {
				selected := poly.Hash(items[k])%b < numer
				if got := h.Hash(items[k]); got != selected {
					t.Fatalf("coef %v item %d: Bernoulli(%d/%d) %v, want %v", coef, items[k], numer, b, got, selected)
				}
				if selected {
					want = append(want, k)
				}
			}
			got := h.Filter(xp[:], []int32{3, 2, 0})
			if len(got) != len(want) {
				t.Fatalf("coef %v items %v: Bernoulli(%d/%d) Filter kept %v, want %v", coef, items, numer, b, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("coef %v items %v: Bernoulli(%d/%d) Filter kept %v, want %v", coef, items, numer, b, got, want)
				}
			}
		}
	}
}

// kernelEdges are the values where a reduction can go wrong, as items
// and (below p) as coefficients.
var kernelEdges = []uint64{0, 1, 2, MersennePrime61 - 1, MersennePrime61, MersennePrime61 + 1,
	1 << 61, 1<<62 + 5, 1<<63 - 1, 1 << 63, 1<<64 - 1}

func TestLazyKernelMatchesHash(t *testing.T) {
	const p = MersennePrime61
	buckets := []uint64{1, 2, 3, 4096, 4206, 1 << 20, 1<<61 - 1, 1 << 61, 1 << 63}
	// Extreme coefficients against every pair of edge items.
	for _, coef := range [][6]uint64{
		{p - 1, p - 1, p - 1, p - 1, p - 1, p - 1},
		{0, 1, 0, 0, 0, 1},
		{p - 1, 1, 1, p - 1, 0, p - 1},
		{0, p - 1, p - 1, 0, p - 1, 1},
	} {
		for _, b := range buckets {
			for i, x := range kernelEdges {
				y := kernelEdges[(i+1)%len(kernelEdges)]
				checkLazyKernel(t, coef, [4]uint64{x, y, ^x, x + y}, b)
			}
		}
	}
	// Random coefficients and items, with an edge mixed into each.
	rng := util.NewSplitMix64(16)
	for i := 0; i < 20000; i++ {
		var coef [6]uint64
		for k := range coef {
			coef[k] = rng.Uint64n(p)
		}
		coef[rng.Uint64n(6)] = kernelEdges[rng.Uint64n(4)] // 0, 1, 2, p-1
		items := [4]uint64{rng.Next(), rng.Next(), rng.Next(), kernelEdges[i%len(kernelEdges)]}
		checkLazyKernel(t, coef, items, buckets[i%len(buckets)])
	}
}

// FuzzLazyKernel lets the fuzzer pick the coefficients, the items and b.
func FuzzLazyKernel(f *testing.F) {
	const p = MersennePrime61
	f.Add(uint64(0), uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(4096))
	f.Add(p-1, p-1, p-1, p-1, p-1, p-1, p-1, p, uint64(4206))
	f.Add(p-1, p-1, p-1, p-1, p-1, p-1, uint64(1<<64-1), p+1, uint64(1))
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3, c4, c5, x, y, b uint64) {
		if b == 0 {
			b = 1
		}
		coef := [6]uint64{c0 % p, c1 % p, c2 % p, c3 % p, c4 % p, c5 % p}
		checkLazyKernel(t, coef, [4]uint64{x, y, x ^ y, x + y}, b)
	})
}
