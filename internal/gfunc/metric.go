package gfunc

import "math"

// This file implements Appendix D.5: the extended metric
//
//	Θ(g, h) = sup_x | log g(x) - log h(x) |
//
// on the class G, under which 2-pass tractable S-normal functions are
// *stable* (Proposition 63: slow-jumping and slow-dropping transfer to any
// h at finite Θ-distance) while S-nearly periodic functions are *unstable*
// (Theorem 64: within any δ > 0 there is a 1-pass intractable function).

// Theta computes the metric restricted to [1, m] on the standard grid
// (the true metric is a sup over all of N; on the grid it is a lower
// bound, which is the direction the instability theorem needs).
func Theta(g, h Func, m uint64) float64 {
	sup := 0.0
	for _, x := range Grid(m, 1024) {
		d := math.Abs(LogEval(g, x) - LogEval(h, x))
		if d > sup {
			sup = d
		}
	}
	return sup
}

// Overlay is a function equal to base except at finitely many points,
// the shape of Theorem 64's perturbation. It implements Func.
type Overlay struct {
	name string
	base Func
	over map[uint64]float64
}

// NewOverlay builds an overlay. The override values must keep the class-G
// constraints (positive; index 0 and 1 may not be overridden).
func NewOverlay(name string, base Func, over map[uint64]float64) *Overlay {
	for x, v := range over {
		if x <= 1 {
			panic("gfunc: overlay may not override g(0) or g(1)")
		}
		if !(v > 0) {
			panic("gfunc: overlay values must be positive")
		}
	}
	cp := make(map[uint64]float64, len(over))
	for k, v := range over {
		cp[k] = v
	}
	return &Overlay{name: name, base: base, over: cp}
}

// Name implements Func.
func (o *Overlay) Name() string { return o.name }

// Eval implements Func.
func (o *Overlay) Eval(x uint64) float64 {
	if v, ok := o.over[x]; ok {
		return v
	}
	return o.base.Eval(x)
}

// LogEval implements LogEvaler, delegating to the base's log-space
// evaluator away from the overridden points (keeping Θ(g, overlay(g)) an
// exact zero off the overrides).
func (o *Overlay) LogEval(x uint64) float64 {
	if v, ok := o.over[x]; ok {
		return math.Log(v)
	}
	return LogEval(o.base, x)
}

// PerturbNearlyPeriodic implements the Theorem 64 construction: given a
// (nearly periodic) g and δ > 0, build h with Θ(g, h) <= δ by bumping g
// at its drop witnesses x_k by (1+δ) and depressing g at x_k + y_k by
// 1/(1+δ). The bumps break the near-repetition |g(x_k) - g(x_k + y_k)|
// while preserving the drops, so h is neither slow-dropping nor nearly
// periodic: 1-pass intractable by Lemma 23.
//
// Witnesses are harvested from the slow-dropping checker over [1, cfg.M]:
// for each α-period y (drop exponent above half the top exponent), the
// pair (x, y) with maximal g(x)/g(y) is perturbed at x and x + y.
func PerturbNearlyPeriodic(g Func, delta float64, cfg CheckConfig) Func {
	if delta <= 0 {
		panic("gfunc: delta must be positive")
	}
	drop := CheckSlowDropping(g, cfg)
	over := make(map[uint64]float64)
	if drop.Holds {
		// Nothing to perturb against: g is slow-dropping, return g + noise
		// at nothing (the theorem only concerns nearly periodic g).
		return NewOverlay(g.Name()+"~", g, over)
	}
	alpha0 := drop.TopExponent / 2
	grid := Grid(cfg.M, cfg.Dense)
	prefixMaxLog := math.Inf(-1)
	for i, y := range grid {
		ly := LogEval(g, y)
		isPeriod := y > 1 && prefixMaxLog-ly >= alpha0*math.Log(float64(y))
		if ly > prefixMaxLog {
			prefixMaxLog = ly
		}
		if !isPeriod {
			continue
		}
		// Choose the largest admissible x < y on the grid (g(x) large
		// relative to the period value, not yet perturbed), then break
		// the near-repetition at (x, x+y).
		bound := ly + alpha0*math.Log(float64(y))
		for j := i - 1; j >= 0; j-- {
			x := grid[j]
			if x <= 1 {
				break
			}
			if LogEval(g, x) < bound {
				continue
			}
			if _, ok := over[x]; ok {
				continue
			}
			if _, ok := over[x+y]; ok {
				continue
			}
			over[x] = g.Eval(x) * (1 + delta)
			over[x+y] = g.Eval(x+y) / (1 + delta)
			break
		}
	}
	return NewOverlay(g.Name()+"~δ", g, over)
}
