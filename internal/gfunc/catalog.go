package gfunc

import (
	"math"
	"math/bits"
	"strconv"
)

// This file implements every function of one variable that the paper names,
// normalized into the class G (g(0)=0, g(1)=1, g(x)>0 for x>0).

// Power returns g(x) = x^p. The paper: tractable iff p <= 2 (slow-jumping
// fails for p > 2; slow-dropping fails for p < 0).
func Power(p float64) Func {
	name := "x^" + trimFloat(p)
	return NewWithLog(name,
		func(x uint64) float64 {
			if x == 0 {
				return 0
			}
			return math.Pow(float64(x), p)
		},
		func(x uint64) float64 {
			return p * math.Log(float64(x))
		})
}

// F2Func returns g(x) = x², the frequency-moment special case F2.
func F2Func() Func { return Power(2) }

// F1Func returns g(x) = x (the L1 norm of the frequency vector).
func F1Func() Func { return Power(1) }

// L0 returns the indicator g(x) = 1(x > 0): the number of distinct items.
// Monotone, bounded, tractable.
func L0() Func {
	return New("1(x>0)", func(x uint64) float64 {
		if x == 0 {
			return 0
		}
		return 1
	})
}

// Reciprocal returns g(x) = 1/x, the canonical polynomially decreasing
// function. Not slow-dropping, hence intractable (Lemma 23); this is the
// paper's §4.6 example "1/x is not slow-dropping".
func Reciprocal() Func {
	return NewWithLog("1/x",
		func(x uint64) float64 {
			if x == 0 {
				return 0
			}
			return 1 / float64(x)
		},
		func(x uint64) float64 {
			return -math.Log(float64(x))
		})
}

// InverseLog returns g(x) = 1/lg(1+x) normalized; it decreases only
// sub-polynomially, so it is slow-dropping and tractable — the paper's
// example (lg(1+x))^{-1} 1(x>0) from Definition 7.
func InverseLog() Func {
	return Normalize("1/lg(1+x)", func(x uint64) float64 {
		return 1 / math.Log2(1+float64(x))
	})
}

// Exp2 returns g(x) = 2^(x-1), exponential growth; not slow-jumping.
func Exp2() Func {
	return NewWithLog("2^(x-1)",
		func(x uint64) float64 {
			if x == 0 {
				return 0
			}
			return math.Pow(2, float64(x-1))
		},
		func(x uint64) float64 {
			return float64(x-1) * math.Ln2
		})
}

// SinX2 returns g(x) = (2+sin x)x² / 3: slow-jumping and slow-dropping but
// NOT predictable (Definition 8's negative example — it varies by a factor
// of 3 between nearby integers while growing). 2-pass tractable only.
func SinX2() Func {
	return Normalize("(2+sin x)x^2", func(x uint64) float64 {
		fx := float64(x)
		return (2 + math.Sin(fx)) * fx * fx
	})
}

// SinSqrtX2 returns g(x) = (2+sin √x)x² normalized: §4.6's example of a
// function that is slow-jumping and slow-dropping but not predictable, so
// 2-pass tractable but not 1-pass tractable.
func SinSqrtX2() Func {
	return Normalize("(2+sin sqrt(x))x^2", func(x uint64) float64 {
		fx := float64(x)
		return (2 + math.Sin(math.Sqrt(fx))) * fx * fx
	})
}

// SinLogX2 returns g(x) = (2+sin log(1+x))x² normalized: §4.6's example of
// a modulated quadratic whose modulation drifts slowly enough to be
// predictable, hence 1-pass tractable.
func SinLogX2() Func {
	return Normalize("(2+sin log(1+x))x^2", func(x uint64) float64 {
		fx := float64(x)
		return (2 + math.Sin(math.Log(1+fx))) * fx * fx
	})
}

// X2Log returns g(x) = x² lg(1+x) normalized: §4.6's example of a slightly
// super-quadratic but still slow-jumping (the excess is sub-polynomial),
// 1-pass tractable function.
func X2Log() Func {
	return Normalize("x^2 lg(1+x)", func(x uint64) float64 {
		fx := float64(x)
		return fx * fx * math.Log2(1+fx)
	})
}

// X2SqrtLogExtra returns g(x) = x² 2^√(lg x) normalized, the Definition 6
// example of a slow-jumping function with a genuinely sub-polynomial but
// super-polylogarithmic factor.
func X2SqrtLogExtra() Func {
	return Normalize("x^2 2^sqrt(lg x)", func(x uint64) float64 {
		fx := float64(x)
		return fx * fx * math.Pow(2, math.Sqrt(math.Log2(fx)))
	})
}

// ExpSqrtLog returns g(x) = e^√(ln(1+x)) normalized: §4.6's sub-polynomially
// growing 1-pass tractable example e^{log^{1/2}(1+x)}.
func ExpSqrtLog() Func {
	return Normalize("e^sqrt(log(1+x))", func(x uint64) float64 {
		return math.Exp(math.Sqrt(math.Log(1 + float64(x))))
	})
}

// X3 returns g(x) = x³: not slow-jumping, hence intractable in any constant
// number of passes (Lemma 28); matches the Θ(n^{1-2/k}) frequency-moment
// bound for k = 3.
func X3() Func { return Power(3) }

// Gnp returns the nearly periodic function of Definition 52 / Appendix D.1:
// g(x) = 2^{-ι(x)} where ι(x) is the index of the lowest set bit of x, and
// g(0) = 0. It is S-nearly periodic yet 1-pass tractable via the dedicated
// algorithm in internal/heavy.
func Gnp() Func {
	return New("g_np", func(x uint64) float64 {
		if x == 0 {
			return 0
		}
		return math.Pow(2, -float64(bits.TrailingZeros64(x)))
	})
}

// GnpIota returns ι(x) = index of the lowest set bit, the structural value
// behind Gnp. Exposed for the Appendix D.1 heavy-hitter algorithm.
func GnpIota(x uint64) int {
	if x == 0 {
		return 64
	}
	return bits.TrailingZeros64(x)
}

// LEta applies the transformation L_η(g)(x) = g(x) log^η(1+x) of
// Definition 55, renormalized into G. Theorems 30/31: Lη preserves 1-pass
// tractability of S-normal functions but breaks every nearly periodic
// function (the log factor destroys the near-repetition).
func LEta(g Func, eta float64) Func {
	name := "L_" + trimFloat(eta) + "(" + g.Name() + ")"
	return Normalize(name, func(x uint64) float64 {
		return g.Eval(x) * math.Pow(math.Log(1+float64(x)), eta)
	})
}

// trimFloat renders p compactly for names ("2", "1.5", "0.25").
func trimFloat(p float64) string {
	return strconv.FormatFloat(p, 'g', -1, 64)
}
