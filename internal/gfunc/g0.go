package gfunc

import (
	"fmt"
	"math"
)

// This file implements Appendix A: the case g(0) ≠ 0. The paper
// normalizes such functions into
//
//	G0 = { g : Z → R+, g(x) = g(-x) > 0, g(0) = 1 }
//
// after first disposing of sign-crossing and zero-hitting functions:
//
//   - Lemma 34 / Proposition 36: if g takes both positive and negative
//     values (and is non-linear), g-SUM needs Ω(n) space;
//   - Proposition 37/38: if g(x) = 0 for some x > 0, then g is tractable
//     only if it is periodic (with period dividing 2x).
//
// For genuinely positive g with g(0) = 1, the zero-one law carries over
// (Theorems 39-41) with the same three properties applied to the
// restriction, and a redefined near-periodicity (Definition 33) whose
// second condition compares g(x) against g(x - 2y) — the INDEX reduction
// in the turnstile model sends -n copies of the absent elements, landing
// at x - 2y rather than x + y.

// SignVerdict classifies a symmetric function with g(0) ≠ 0 before the
// zero-one law applies.
type SignVerdict int

const (
	// SignPositive: g > 0 everywhere checked; the G0 zero-one law applies.
	SignPositive SignVerdict = iota
	// SignCrossing: g takes both signs; Ω(n) space (Lemma 34 / Prop 36).
	SignCrossing
	// SignZeroPeriodic: g hits 0 and is periodic; g-SUM reduces to
	// counting residues mod the period (tractable special case).
	SignZeroPeriodic
	// SignZeroAperiodic: g hits 0 and is not periodic; not 1-pass
	// tractable (Prop 37/38).
	SignZeroAperiodic
)

// String renders the verdict.
func (v SignVerdict) String() string {
	switch v {
	case SignPositive:
		return "positive (zero-one law applies)"
	case SignCrossing:
		return "sign-crossing (Ω(n), Lemma 34/Prop 36)"
	case SignZeroPeriodic:
		return "zero + periodic (tractable special case)"
	case SignZeroAperiodic:
		return "zero + aperiodic (intractable, Prop 37/38)"
	default:
		return fmt.Sprintf("SignVerdict(%d)", int(v))
	}
}

// SignReport is the outcome of AnalyzeSigns.
type SignReport struct {
	Verdict SignVerdict
	// NegativeAt is the first witness g(x) < 0, if any.
	NegativeAt uint64
	// ZeroAt is the first witness g(x) = 0 with x > 0, if any.
	ZeroAt uint64
	// Period is the detected period when Verdict == SignZeroPeriodic.
	Period uint64
}

// AnalyzeSigns implements the Lemma 34 - Proposition 38 gate for a
// symmetric function given by its values on Z≥0 (the symmetric extension
// g(-x) = g(x) is implicit). The scan covers [0, m].
func AnalyzeSigns(g func(uint64) float64, m uint64) SignReport {
	var zeroAt uint64
	for x := uint64(0); x <= m; x++ {
		v := g(x)
		if v < 0 {
			return SignReport{Verdict: SignCrossing, NegativeAt: x}
		}
		if v == 0 && x > 0 && zeroAt == 0 {
			zeroAt = x
		}
	}
	if zeroAt == 0 {
		return SignReport{Verdict: SignPositive}
	}
	// Proposition 38: tractability forces periodicity with period
	// min{x > 0 : g(x) = 0} (g(0) = 0 case) or dividing 2·zeroAt. Detect
	// the smallest period p <= 2*zeroAt with g(x+p) = g(x) on the range.
	for p := uint64(1); p <= 2*zeroAt && p <= m; p++ {
		periodic := true
		for x := uint64(0); x+p <= m; x++ {
			if math.Abs(g(x+p)-g(x)) > 1e-12 {
				periodic = false
				break
			}
		}
		if periodic {
			return SignReport{Verdict: SignZeroPeriodic, ZeroAt: zeroAt, Period: p}
		}
	}
	return SignReport{Verdict: SignZeroAperiodic, ZeroAt: zeroAt}
}

// G0Func is a symmetric positive function with g(0) = 1 (the class G0).
type G0Func struct {
	name string
	eval func(uint64) float64
}

// NewG0 wraps eval (defined on Z≥0; symmetric extension implicit) as a
// G0 function. It panics if g(0) != 1 — normalize by dividing by g(0).
func NewG0(name string, eval func(uint64) float64) G0Func {
	if v := eval(0); math.Abs(v-1) > 1e-9 {
		panic(fmt.Sprintf("gfunc: G0 function %q has g(0) = %v, want 1", name, v))
	}
	return G0Func{name: name, eval: eval}
}

// NormalizeG0 rescales an arbitrary positive symmetric function into G0.
func NormalizeG0(name string, f func(uint64) float64) G0Func {
	f0 := f(0)
	if !(f0 > 0) {
		panic(fmt.Sprintf("gfunc: cannot G0-normalize %q, f(0) = %v", name, f0))
	}
	return G0Func{name: name, eval: func(x uint64) float64 { return f(x) / f0 }}
}

// Name returns the identifier.
func (g G0Func) Name() string { return g.name }

// Eval returns g(x).
func (g G0Func) Eval(x uint64) float64 { return g.eval(x) }

// Restriction returns the class-G function h with h(0) = 0 and
// h(x) = g(x)/g(1) for x >= 1: the positive part that the standard
// zero-one-law machinery (and the sketching algorithms) operate on. The
// full sum is recovered affinely, F0 being the number of nonzero
// coordinates:
//
//	Σ_{i∈[n]} g(|v_i|) = (n - F0) · g(0) + g(1) · Σ_{v_i≠0} h(|v_i|).
func (g G0Func) Restriction() Func {
	return Normalize(g.name+"|x>0", func(x uint64) float64 {
		return g.eval(x)
	})
}

// ClassificationG0 is the Appendix A analogue of Classification.
type ClassificationG0 struct {
	Name string
	Sign SignReport
	// Restricted is the zero-one-law classification of the restriction;
	// only meaningful when Sign.Verdict == SignPositive.
	Restricted Classification
	// NearlyPeriodicG0 is the Definition 33 near-periodicity check (the
	// x - 2y variant).
	NearlyPeriodicG0 Report
	OnePass          Tractability
	TwoPass          Tractability
}

// ClassifyG0 runs the Appendix A pipeline: the sign/zero gate first, then
// the three-property classification of the restriction with the
// Definition 33 near-periodicity variant.
func ClassifyG0(g G0Func, cfg CheckConfig) ClassificationG0 {
	out := ClassificationG0{Name: g.Name()}
	out.Sign = AnalyzeSigns(g.eval, minU64(cfg.M, 1<<14))
	switch out.Sign.Verdict {
	case SignCrossing, SignZeroAperiodic:
		out.OnePass, out.TwoPass = Intractable, Intractable
		return out
	case SignZeroPeriodic:
		// Counting residue classes mod the period is a bounded g-SUM:
		// tractable (store one counter per residue is not streaming-safe,
		// but g bounded and periodic means Σ g(v_i) is a fixed linear
		// combination of frequency-residue counts, sketchable as in D.1).
		out.OnePass, out.TwoPass = Tractable, Tractable
		return out
	}
	out.Restricted = Classify(g.Restriction(), cfg)
	out.NearlyPeriodicG0 = CheckNearlyPeriodicG0(g, cfg)
	if out.NearlyPeriodicG0.Holds {
		out.OnePass, out.TwoPass = OpenNearlyPeriodic, OpenNearlyPeriodic
		return out
	}
	out.OnePass = out.Restricted.OnePass
	out.TwoPass = out.Restricted.TwoPass
	return out
}

// CheckNearlyPeriodicG0 tests Definition 33: like Definition 9, but the
// second condition constrains |g(x) - g(x - 2y)| at α-periods y for
// x < y... with the turnstile INDEX reduction landing at x - 2y. Since
// x < y makes x - 2y negative, symmetry gives |x - 2y| = 2y - x, which is
// what the checker evaluates.
func CheckNearlyPeriodicG0(g G0Func, cfg CheckConfig) Report {
	h := g.Restriction()
	drop := CheckSlowDropping(h, cfg)
	if drop.Holds {
		return Report{Holds: false, Witness: drop.Witness}
	}
	alpha0 := drop.TopExponent / 2
	if alpha0 <= 0 {
		return Report{Holds: false}
	}
	grid := Grid(cfg.M, cfg.Dense)
	midLo, midHi, topLo, topHi := cfg.windows()
	var (
		prefixMaxLog = math.Inf(-1)
		mid, top     float64
		midSeen      bool
		topSeen      bool
		wit          *Witness
	)
	for _, y := range grid {
		ly := LogEval(h, y)
		isPeriod := y > 1 && prefixMaxLog-ly >= alpha0*math.Log(float64(y))
		if ly > prefixMaxLog {
			prefixMaxLog = ly
		}
		if !isPeriod {
			continue
		}
		inMid := y >= midLo && y <= midHi
		inTop := y >= topLo && y <= topHi
		if !inMid && !inTop {
			continue
		}
		gy := h.Eval(y)
		bound := gy * math.Pow(float64(y), alpha0)
		r := 0.0
		var rx uint64
		for _, x := range grid {
			if x >= y {
				break
			}
			gx := g.Eval(x)
			if gx < bound {
				continue
			}
			gxm := g.Eval(2*y - x) // |x - 2y| by symmetry
			den := math.Min(gx, gxm)
			if den <= 0 {
				r = math.Inf(1)
				rx = x
				break
			}
			if c := math.Abs(gxm-gx) / den; c > r {
				r = c
				rx = x
			}
		}
		if inMid {
			midSeen = true
			if r > mid {
				mid = r
			}
		}
		if inTop {
			topSeen = true
			if r > top {
				top = r
				wit = &Witness{X: rx, Y: y, GX: g.Eval(rx), GY: gy, Exponent: r}
			}
		}
	}
	if !midSeen || !topSeen {
		return Report{Holds: false, MidExponent: mid, TopExponent: top, Witness: wit}
	}
	nearRepeats := top <= 1e-9 || top < cfg.DecayFactor*mid
	return Report{Holds: nearRepeats, MidExponent: mid, TopExponent: top, Witness: wit}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
