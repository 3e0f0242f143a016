package util

import (
	"fmt"
	"math"
	"sort"
)

// SplitMix64 is a tiny, fast, splittable PRNG used to derive seeds for hash
// families and generators. It is deterministic for a given state and is the
// only source of randomness in the repository, so every experiment is
// reproducible from a single root seed.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with the given state.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next pseudo-random 64-bit value.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a pseudo-random value in [0, n). It panics if n == 0.
func (s *SplitMix64) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("util: Uint64n with n == 0")
	}
	// Rejection sampling to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := s.Next()
		if v < max {
			return v % n
		}
	}
}

// Int63n returns a pseudo-random value in [0, n) as int64. It panics if n <= 0.
func (s *SplitMix64) Int63n(n int64) int64 {
	if n <= 0 {
		panic("util: Int63n with n <= 0")
	}
	return int64(s.Uint64n(uint64(n)))
}

// Float64 returns a pseudo-random value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Bool returns a pseudo-random boolean.
func (s *SplitMix64) Bool() bool {
	return s.Next()&1 == 1
}

// Fork derives an independent child generator. Forked generators do not
// share state with the parent after the call.
func (s *SplitMix64) Fork() *SplitMix64 {
	return &SplitMix64{state: s.Next()}
}

// MedianFloat64 returns the median of xs. It copies xs, so the argument is
// not reordered. It panics on an empty slice.
func MedianFloat64(xs []float64) float64 {
	if len(xs) == 0 {
		panic("util: median of empty slice")
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// MedianInt64 returns the median of xs (lower median for even length).
// It copies xs. It panics on an empty slice.
func MedianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		panic("util: median of empty slice")
	}
	cp := make([]int64, len(xs))
	copy(cp, xs)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp[len(cp)/2]
}

// MeanFloat64 returns the arithmetic mean of xs. It panics on an empty slice.
func MeanFloat64(xs []float64) float64 {
	if len(xs) == 0 {
		panic("util: mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using nearest-rank.
// It copies xs. It panics on an empty slice or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("util: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("util: quantile %v outside [0,1]", q))
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	idx := int(math.Ceil(q*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// RelErr returns |est - truth| / |truth|. If truth == 0 it returns |est|
// (absolute error), so a zero ground truth with a zero estimate reports 0.
func RelErr(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-truth) / math.Abs(truth)
}

// AlmostEqual reports whether a and b differ by at most tol in relative
// terms (or absolute terms when the larger magnitude is below 1).
func AlmostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return diff <= tol
	}
	return diff <= tol*scale
}

// SatAbsInt64 returns |x|, saturating math.MinInt64 to math.MaxInt64. It
// is the magnitude to take of any int64 the repository holds — a sketch
// counter, an estimate, a stream frequency: a turnstile delta is any
// int64, so those can hold every value, and an input must not be able to
// panic whoever ranks or checks them. Branch-free, because the top-k
// tracker takes it of every estimate and their signs are random.
func SatAbsInt64(x int64) int64 {
	m := x >> 63     // 0, or -1 for negative x
	a := (x ^ m) - m // |x|, except that MinInt64 stays MinInt64
	return a + a>>63 // a>>63 is -1 only then, and MinInt64 - 1 wraps to MaxInt64
}

// MaxInt64 returns the larger of a and b.
func MaxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// MinInt64 returns the smaller of a and b.
func MinInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// NextPow2 returns the smallest power of two >= x (and at least 1).
func NextPow2(x uint64) uint64 {
	if x == 0 {
		return 1
	}
	p := uint64(1)
	for p < x {
		p <<= 1
	}
	return p
}

// Log2Ceil returns ceil(log2(x)) for x >= 1. Log2Ceil(1) == 0.
func Log2Ceil(x uint64) int {
	if x == 0 {
		panic("util: Log2Ceil(0)")
	}
	n := 0
	p := uint64(1)
	for p < x {
		p <<= 1
		n++
	}
	return n
}
