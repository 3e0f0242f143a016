package comm

import (
	"math"

	"repro/internal/util"
)

// This file implements the amplification machinery of Theorem 44: running
// ℓ = Θ(log n) independent copies of a 2/3-correct one-way protocol and
// letting the final player take per-element majority votes drives the
// per-element error below 1/n², so a union bound over his <= n elements
// keeps the whole DISJ+IND protocol correct. The same Chernoff argument
// powers the paper's standard "repeat O(log 1/δ) times and take the
// median" amplification (the MLE grid's; a g-SUM sketch spends the same
// bytes on rows instead — EXPERIMENTS.md, "Spending the ledger, round 4").

// MajorityCopies returns the ℓ of Theorem 44 for a target domain size n:
// ℓ = ceil(96 ln n), the constant from the proof's Chernoff bound.
func MajorityCopies(n int) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(96 * math.Log(float64(n))))
}

// MajorityBoost simulates the amplification: a base decision procedure
// succeeding independently with probability p is repeated copies times
// with majority vote, trials times; the observed failure rate of the vote
// is returned. The Chernoff bound promises failure <=
// exp(-copies (p - 1/2)²/2) for p > 1/2.
func MajorityBoost(p float64, copies, trials int, rng *util.SplitMix64) float64 {
	if copies < 1 || trials < 1 {
		panic("comm: MajorityBoost needs positive copies and trials")
	}
	failures := 0
	for t := 0; t < trials; t++ {
		wins := 0
		for c := 0; c < copies; c++ {
			if rng.Float64() < p {
				wins++
			}
		}
		if 2*wins <= copies {
			failures++
		}
	}
	return float64(failures) / float64(trials)
}

// ChernoffFailureBound returns the multiplicative Chernoff bound the
// Theorem 44 proof uses: the majority fails when the success count X
// drops to (1-δ)μ with μ = copies·p and δ = 1 - 1/(2p), and
// P(X <= (1-δ)μ) <= exp(-μδ²/2). At p = 2/3 this is exp(-copies/48), so
// copies = 96 ln n gives failure n^{-2}, exactly the proof's constant.
func ChernoffFailureBound(p float64, copies int) float64 {
	if p <= 0.5 {
		return 1
	}
	mu := float64(copies) * p
	delta := 1 - 1/(2*p)
	return math.Exp(-mu * delta * delta / 2)
}
