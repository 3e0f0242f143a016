package gfunc

import "math"

// Envelope is the concrete sub-polynomial function H of Section 4.2/4.3:
// a single non-decreasing bound satisfying, over [1, M],
//
//	g(y) >= g(x)/H(M)                  for all x < y   (slow-dropping form)
//	g(y) <= ⌊y/x⌋² H(M) g(x)           for all x < y   (slow-jumping form)
//
// (Propositions 15 and 16 guarantee such an H exists exactly when g is
// slow-dropping and slow-jumping.) The algorithms size their CountSketch
// by λ/H(M), so for tractable functions H(M) is sub-polynomial in M and
// the sketch stays small, while for intractable functions H(M) grows
// polynomially and the required width blows up — that blow-up is the
// experimentally observable face of the lower bound.
type Envelope struct {
	// Drop = max_{x<y<=M} g(x)/g(y).
	Drop float64
	// Jump = max_{x<y<=M} g(y) / (⌊y/x⌋² g(x)).
	Jump float64
}

// H returns the combined envelope value max(1, Drop, Jump).
func (e Envelope) H() float64 {
	h := 1.0
	if e.Drop > h {
		h = e.Drop
	}
	if e.Jump > h {
		h = e.Jump
	}
	return h
}

// MeasureEnvelope computes the envelope of g over [1, m] on the standard
// grid. Values can be +Inf for functions with unbounded ratios (e.g. 2^x);
// callers should treat non-finite envelopes as "no sub-polynomial sketch
// exists at this scale".
//
// The Jump scan visits every grid pair x < y (about 540k at m = 4096). It
// evaluates ln g once per grid point, not once per pair, and ln ⌊y/x⌋ only
// when the quotient changes along a row; every pair's term is the same
// expression on the same values as evaluating both in place, so H is
// bit-identical to that scan's.
func MeasureEnvelope(g Func, m uint64) Envelope {
	grid := Grid(m, 1024)
	logs := make([]float64, len(grid))
	for i, x := range grid {
		logs[i] = LogEval(g, x)
	}
	var (
		prefixMaxLog = math.Inf(-1) // running max of ln g(x), x < y
		drop         = 0.0          // max ln(g(x)/g(y))
		jump         = 0.0          // max ln(g(y)/(⌊y/x⌋² g(x)))
	)
	// Drop needs only the prefix max. Jump needs a scan over x because of
	// the ⌊y/x⌋² factor.
	for i, y := range grid {
		ly := logs[i]
		if i > 0 {
			if d := prefixMaxLog - ly; d > drop {
				drop = d
			}
			q, lq := uint64(0), 0.0 // ⌊y/x⌋ and its log, for the last x
			for k, x := range grid[:i] {
				if y/x != q {
					q = y / x
					lq = math.Log(float64(q))
				}
				if j := ly - logs[k] - 2*lq; j > jump {
					jump = j
				}
			}
		}
		if ly > prefixMaxLog {
			prefixMaxLog = ly
		}
	}
	return Envelope{Drop: math.Exp(drop), Jump: math.Exp(jump)}
}

// StableRadius returns r_ε(x) = max{ y : x + y' ∈ δ_ε(g, x) for all
// |y'| <= y }, the stability radius used by Algorithm 2's pruning step:
// the largest symmetric window around x inside which g stays within a
// (1±ε) band of g(x). Returns 0 when even y' = ±1 escapes the band.
// It is the paper's r_ε, kept as an artifact: no estimator calls it, and
// TestStableRadiusSmoothVsOscillating and TestStableRadiusZeroAtJump hold it.
func StableRadius(g Func, x uint64, eps float64) uint64 {
	if x == 0 {
		return 0
	}
	gx := g.Eval(x)
	ok := func(z uint64) bool {
		gz := g.Eval(z)
		return math.Abs(gz-gx) <= eps*gx
	}
	// The window must hold for every offset up to the radius, and g need
	// not be monotone, so scan outward until the first failure. The scan is
	// capped: radii beyond the cap are "effectively unbounded" for every
	// caller (sketch errors are far smaller).
	const maxRadius = 1 << 21
	for y := uint64(1); y <= x && y <= maxRadius; y++ {
		if !ok(x+y) || !ok(x-y) {
			return y - 1
		}
	}
	if x < maxRadius {
		return x
	}
	return maxRadius
}
