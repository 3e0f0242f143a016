package comm

import (
	"fmt"
	"sort"

	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/xhash"
)

// This file implements the ShortLinearCombination problem of Appendix C:
// (u, d)-DIST (Definition 50), its 3-frequency special case (a, b, c)-DIST
// (Definition 45), the minimal-coefficient solver that determines the
// Θ(n/q²) complexity (Theorem 51), and the matching algorithm of
// Proposition 49.

// MinCombination finds integer coefficients q minimizing Σ|q_i| subject to
// Σ q_i u_i = d, by breadth-first search over reachable values in layers of
// increasing L1 norm. It returns the coefficients and true, or nil and
// false if no combination with Σ|q_i| <= maxNorm exists (which for coprime
// inputs means maxNorm was too small). The quantity q = Σ|q_i| governs the
// communication complexity Ω(n/q²) of (u, d)-DIST.
func MinCombination(u []int64, d int64, maxNorm int) ([]int64, bool) {
	if len(u) == 0 {
		return nil, false
	}
	type state struct {
		val int64
		// parent tracking: index into states plus the coefficient delta
		parent int
		ui     int
		step   int64
	}
	// BFS layer by layer on total norm; dedupe on value (first visit is
	// minimal norm). Values are bounded: |val| <= maxNorm * max|u| + |d|.
	maxU := int64(0)
	for _, x := range u {
		if a := util.SatAbsInt64(x); a > maxU {
			maxU = a
		}
	}
	bound := int64(maxNorm)*maxU + util.SatAbsInt64(d) + 1
	visited := map[int64]int{0: 0}
	states := []state{{val: 0, parent: -1}}
	frontier := []int{0}
	for norm := 1; norm <= maxNorm; norm++ {
		var next []int
		for _, si := range frontier {
			v := states[si].val
			for i, ui := range u {
				for _, stp := range [2]int64{ui, -ui} {
					nv := v + stp
					if util.SatAbsInt64(nv) > bound {
						continue
					}
					if _, ok := visited[nv]; ok {
						continue
					}
					states = append(states, state{val: nv, parent: si, ui: i, step: stp})
					visited[nv] = len(states) - 1
					next = append(next, len(states)-1)
				}
			}
		}
		if si, ok := visited[d]; ok {
			coeffs := make([]int64, len(u))
			for cur := si; cur > 0; cur = states[cur].parent {
				st := states[cur]
				if st.step == u[st.ui] {
					coeffs[st.ui]++
				} else {
					coeffs[st.ui]--
				}
			}
			return coeffs, true
		}
		frontier = next
	}
	return nil, false
}

// NormOf returns Σ|q_i|.
func NormOf(q []int64) int64 {
	var s int64
	for _, c := range q {
		s += util.SatAbsInt64(c)
	}
	return s
}

// DistConfig parameterizes an (a, b, c)-DIST instance (Definition 45):
// the frequency vector is promised to lie in {±a, ±b, 0}^n, or to equal
// such a vector with one coordinate replaced by ±c.
type DistConfig struct {
	A, B, C int64
	N       uint64
	// FillA, FillB: how many coordinates take value ±a / ±b.
	FillA, FillB int
	Seed         uint64
}

// NewDistPair generates a Yes instance (some coordinate = ±c) and a No
// instance (all coordinates in {±a, ±b, 0}) as streams. GapLow/GapHigh are
// not meaningful for DIST (it is a detection problem, not estimation), so
// they are set to 0/1; use the dedicated solver below.
func NewDistPair(cfg DistConfig, trial int) (yes, no *stream.Stream) {
	rng := util.NewSplitMix64(cfg.Seed + uint64(trial)*0x6a09)
	build := func(plant bool) *stream.Stream {
		s := stream.New(cfg.N)
		used := make(map[uint64]struct{})
		place := func(v int64) {
			for {
				it := rng.Uint64n(cfg.N)
				if _, ok := used[it]; ok {
					continue
				}
				used[it] = struct{}{}
				if rng.Bool() {
					v = -v
				}
				// split into two updates to exercise the turnstile model
				h := v / 2
				if h != 0 {
					s.Add(it, h)
				}
				s.Add(it, v-h)
				return
			}
		}
		for i := 0; i < cfg.FillA; i++ {
			place(cfg.A)
		}
		for i := 0; i < cfg.FillB; i++ {
			place(cfg.B)
		}
		if plant {
			place(cfg.C)
		}
		return s
	}
	return build(true), build(false)
}

// DistSolver is the algorithm of Proposition 49 for (a, b, c)-DIST: it
// partitions [n] into t buckets, keeps one signed counter
// C_i = Σ_{h(l)=i} ξ_l v_l per bucket (4-wise independent ξ), and decides
// by reading C_i mod a. In a No instance, C_i mod a lies in the residue
// set { z·b mod a : |z| <= L }; planting ±c shifts one bucket's residue
// out of that set, because z'b ≡ zb + c (mod a) with |z - z'| < |q| would
// contradict the minimality of q in ap + bq = c. Soundness needs
// t = Õ(n/q²), which keeps |z| <= L with high probability — precisely the
// Theorem 48 space bound.
type DistSolver struct {
	a, b, c int64
	t       int
	l       int64 // residue radius L
	h       *xhash.Buckets
	sign    *xhash.Sign
	counts  []int64
	base    map[int64]struct{} // allowed residues mod a in the No case
}

// NewDistSolver builds the Proposition 49 structure with t buckets and
// residue radius l (callers size t ≈ n/q² and l < |q|/2; the experiment
// sweeps t to expose the threshold). It panics on degenerate parameters.
func NewDistSolver(a, b, c int64, t int, l int64, rng *util.SplitMix64) *DistSolver {
	if a <= 0 || b <= 0 || c <= 0 || a == c || b == c {
		panic("comm: DistSolver needs positive a, b, c with c ∉ {a, b}")
	}
	if t <= 0 || l < 0 {
		panic("comm: DistSolver needs t > 0, l >= 0")
	}
	base := make(map[int64]struct{}, 2*l+1)
	for z := -l; z <= l; z++ {
		base[mod(z*b, a)] = struct{}{}
	}
	return &DistSolver{
		a: a, b: b, c: c,
		t:      t,
		l:      l,
		h:      xhash.NewBuckets(2, uint64(t), rng.Fork()),
		sign:   xhash.NewSign(4, rng.Fork()),
		counts: make([]int64, t),
		base:   base,
	}
}

// Update processes one turnstile update.
func (ds *DistSolver) Update(item uint64, delta int64) {
	ds.counts[ds.h.Hash(item)] += ds.sign.Hash(item) * delta
}

// Detect reports whether a ±c frequency is present: true iff some bucket's
// residue mod a falls outside the No-case residue set.
func (ds *DistSolver) Detect() bool {
	for _, cnt := range ds.counts {
		if _, ok := ds.base[mod(cnt, ds.a)]; !ok {
			return true
		}
	}
	return false
}

// SpaceBytes reports the counter storage.
func (ds *DistSolver) SpaceBytes() int { return ds.t * 8 }

// mod returns x mod m in [0, m).
func mod(x, m int64) int64 {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// GeneralDistSolver extends the Proposition 49 structure to the full
// (u, d)-DIST problem of Definition 50 (Theorem 51's upper bound): the
// promise allows frequencies from an arbitrary vector u, and the base
// residue set is every value Σ z_i u_i mod a reachable with Σ|z_i| <= l,
// where a = max|u_i| serves as the modulus. Soundness again rests on the
// minimality of q = Σ|q_i| in Σ q_i u_i = d: a planted ±d escapes the set
// as long as 2l + 1 <= q.
type GeneralDistSolver struct {
	u      []int64
	d      int64
	a      int64
	t      int
	h      *xhash.Buckets
	sign   *xhash.Sign
	counts []int64
	base   map[int64]struct{}
}

// NewGeneralDistSolver builds the solver with t buckets and combination
// radius l.
func NewGeneralDistSolver(u []int64, d int64, t int, l int, rng *util.SplitMix64) *GeneralDistSolver {
	if len(u) == 0 || t <= 0 || l < 0 {
		panic("comm: GeneralDistSolver needs frequencies, t > 0, l >= 0")
	}
	var a int64
	for _, v := range u {
		if av := util.SatAbsInt64(v); av > a {
			a = av
		}
	}
	if a == 0 {
		panic("comm: all-zero frequency vector")
	}
	// Base residues: BFS over Σ z_i u_i with L1 norm <= l, reduced mod a.
	base := map[int64]struct{}{0: {}}
	frontier := map[int64]struct{}{0: {}}
	for norm := 0; norm < l; norm++ {
		next := make(map[int64]struct{})
		for v := range frontier {
			for _, ui := range u {
				for _, stp := range [2]int64{ui, -ui} {
					nv := mod(v+stp, a)
					if _, ok := base[nv]; !ok {
						base[nv] = struct{}{}
						next[nv] = struct{}{}
					}
				}
			}
		}
		frontier = next
	}
	return &GeneralDistSolver{
		u: u, d: d, a: a, t: t,
		h:      xhash.NewBuckets(2, uint64(t), rng.Fork()),
		sign:   xhash.NewSign(4, rng.Fork()),
		counts: make([]int64, t),
		base:   base,
	}
}

// Update processes one turnstile update.
func (gs *GeneralDistSolver) Update(item uint64, delta int64) {
	gs.counts[gs.h.Hash(item)] += gs.sign.Hash(item) * delta
}

// Detect reports whether a ±d frequency is present.
func (gs *GeneralDistSolver) Detect() bool {
	for _, cnt := range gs.counts {
		if _, ok := gs.base[mod(cnt, gs.a)]; !ok {
			return true
		}
	}
	return false
}

// SpaceBytes reports the counter storage.
func (gs *GeneralDistSolver) SpaceBytes() int { return gs.t * 8 }

// ResidueSetsDisjoint verifies the combinatorial core of Proposition 49:
// the base residue set {zb mod a : |z| <= l} and its c-shift are disjoint.
// It returns an error naming the collision when they are not (which
// happens exactly when 2l+1 > |q| for the minimal q with ap + bq = c).
func ResidueSetsDisjoint(a, b, c, l int64) error {
	seen := make(map[int64]int64, 2*l+1)
	for z := -l; z <= l; z++ {
		seen[mod(z*b, a)] = z
	}
	for z := -l; z <= l; z++ {
		r := mod(z*b+c, a)
		if z0, ok := seen[r]; ok {
			return fmt.Errorf("comm: residue collision z=%d vs z'=%d (a=%d b=%d c=%d l=%d)",
				z, z0, a, b, c, l)
		}
	}
	return nil
}

// SortedResidues returns the base residue set in sorted order (used by
// tests and the distinguisher example).
func SortedResidues(a, b, l int64) []int64 {
	set := make(map[int64]struct{}, 2*l+1)
	for z := -l; z <= l; z++ {
		set[mod(z*b, a)] = struct{}{}
	}
	out := make([]int64, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
