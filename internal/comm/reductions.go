package comm

import (
	"fmt"

	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

// IndexDropConfig parameterizes the Lemma 23 reduction, which shows that a
// normal function that is not slow-dropping is not 1-pass tractable.
//
// The reduction: g has a drop witness x < y with g(x) >= y^α g(y). Alice
// holds A ⊆ [n'] (n' = y^α) and streams y copies of each element; Bob adds
// x copies of his index b. The two cases differ by |g(x) + g(y) - g(x+y)|,
// which is a constant fraction of the total because the drop makes
// |A| g(y) negligible against g(x).
type IndexDropConfig struct {
	G gfunc.Func
	// X, Y are the drop witness: g(X) >= Y^Alpha g(Y), X < Y.
	X, Y uint64
	// SetSize is |A| (the reduction uses n' = Y^Alpha; smaller values
	// weaken the instance proportionally).
	SetSize int
	Seed    uint64
}

// NewIndexDropPair builds one Yes/No instance pair for Lemma 23.
// Domain: SetSize+1 items suffice (Alice's set plus Bob's index).
func NewIndexDropPair(cfg IndexDropConfig, trial int) InstancePair {
	if cfg.X >= cfg.Y {
		panic(fmt.Sprintf("comm: drop witness needs X < Y, got %d >= %d", cfg.X, cfg.Y))
	}
	rng := util.NewSplitMix64(cfg.Seed + uint64(trial)*0x9e37)
	n := uint64(cfg.SetSize + 2)
	a := randomSubset(rng, n, cfg.SetSize)
	bIn, bOut := chooseInOut(rng, n, a)

	g := cfg.G
	build := func(b uint64) *stream.Stream {
		s := stream.New(n)
		for it := range a {
			s.AddCopies(it, int64(cfg.Y)) // Alice: y copies of each element
		}
		s.AddCopies(b, int64(cfg.X)) // Bob: x copies of his index
		return s
	}
	yes, no := build(bIn), build(bOut)

	// Exact sums: Yes has |A|-1 items at y, one at x+y; No has |A| at y,
	// one at x.
	ay := float64(cfg.SetSize) * g.Eval(cfg.Y)
	yesSum := ay - g.Eval(cfg.Y) + g.Eval(cfg.X+cfg.Y)
	noSum := ay + g.Eval(cfg.X)
	return orient(yes, no, yesSum, noSum)
}

// DisjJumpConfig parameterizes the Lemma 24 reduction (DISJ+IND): a normal
// function that is not slow-jumping is not 1-pass tractable.
//
// The jump witness x <= y has g(y) > ⌊y/x⌋^{2+α} x^α g(x). t = ⌊y/x⌋
// players each stream x copies of their set elements; the final player
// streams r = y - t·x copies of the index. Intersection makes one item's
// frequency exactly y, whose g-value dominates everything else.
type DisjJumpConfig struct {
	G gfunc.Func
	// X, Y are the jump witness.
	X, Y uint64
	// SetSize is the per-player set size n (the reduction's universe).
	SetSize int
	Seed    uint64
}

// NewDisjJumpPair builds one Yes/No instance pair for Lemma 24.
func NewDisjJumpPair(cfg DisjJumpConfig, trial int) InstancePair {
	if cfg.X > cfg.Y || cfg.X == 0 {
		panic("comm: jump witness needs 0 < X <= Y")
	}
	rng := util.NewSplitMix64(cfg.Seed + uint64(trial)*0x51ed)
	t := cfg.Y / cfg.X // ⌊y/x⌋ players
	r := cfg.Y - t*cfg.X
	n := uint64(cfg.SetSize*int(t) + 2)

	g := cfg.G
	// Disjoint case: t players hold pairwise disjoint sets; each element
	// gets frequency x (its sole owner streams x copies); the index player
	// adds r copies of a fresh item. Intersecting case: one common element
	// held by all t players and the index player, reaching frequency
	// t·x + r = y.
	common := rng.Uint64n(n)
	build := func(intersecting bool) *stream.Stream {
		s := stream.New(n)
		next := uint64(0)
		alloc := func() uint64 {
			// fresh items distinct from common
			for {
				v := next
				next++
				if v != common {
					return v
				}
			}
		}
		for p := uint64(0); p < t; p++ {
			for k := 0; k < cfg.SetSize-1; k++ {
				s.AddCopies(alloc(), int64(cfg.X))
			}
			// Each player's last element: common item when intersecting,
			// fresh otherwise.
			if intersecting {
				s.AddCopies(common, int64(cfg.X))
			} else {
				s.AddCopies(alloc(), int64(cfg.X))
			}
		}
		if r > 0 {
			if intersecting {
				s.AddCopies(common, int64(r))
			} else {
				s.AddCopies(alloc(), int64(r))
			}
		}
		return s
	}
	yes, no := build(true), build(false)

	perPlayer := float64(cfg.SetSize) * float64(t)
	gx := g.Eval(cfg.X)
	var yesSum, noSum float64
	if r > 0 {
		yesSum = (perPlayer-float64(t))*gx + g.Eval(cfg.Y)
		noSum = perPlayer*gx + g.Eval(r)
	} else {
		yesSum = (perPlayer-float64(t))*gx + g.Eval(cfg.Y)
		noSum = perPlayer * gx
	}
	return orient(yes, no, yesSum, noSum)
}

// PredIndexConfig parameterizes the Lemma 25 reduction: a normal function
// that is not predictable is not 1-pass tractable.
//
// The predictability witness is a pair x, y with y < x^{1-γ},
// |g(x+y) - g(x)| > ε(x) g(x), and g(y) < x^{-γ} g(x). Alice streams y
// copies of each element of A (|A| ≈ ε(x) x^γ / 4 makes |A| g(y) tiny);
// Bob adds x copies of his index. The cases differ by g(x+y) vs
// g(x) + g(y), a relative gap of ~ε(x).
type PredIndexConfig struct {
	G gfunc.Func
	// X, Y are the predictability witness.
	X, Y uint64
	// SetSize is |A|.
	SetSize int
	Seed    uint64
}

// NewPredIndexPair builds one Yes/No instance pair for Lemma 25. No
// experiment runs it; TestPredIndexPairGap holds it.
func NewPredIndexPair(cfg PredIndexConfig, trial int) InstancePair {
	rng := util.NewSplitMix64(cfg.Seed + uint64(trial)*0xc2b2)
	n := uint64(cfg.SetSize + 2)
	a := randomSubset(rng, n, cfg.SetSize)
	bIn, bOut := chooseInOut(rng, n, a)

	g := cfg.G
	build := func(b uint64) *stream.Stream {
		s := stream.New(n)
		for it := range a {
			s.AddCopies(it, int64(cfg.Y))
		}
		s.AddCopies(b, int64(cfg.X))
		return s
	}
	yes, no := build(bIn), build(bOut)

	ay := float64(cfg.SetSize) * g.Eval(cfg.Y)
	yesSum := ay - g.Eval(cfg.Y) + g.Eval(cfg.X+cfg.Y)
	noSum := ay + g.Eval(cfg.X)
	return orient(yes, no, yesSum, noSum)
}

// Disj2Config parameterizes the Lemma 27 reduction (2-player DISJ), the
// multi-pass lower bound for P-normal functions that are not slow-dropping.
type Disj2Config struct {
	G gfunc.Func
	// X, Y are the drop witness with |g(x+y) - g(x)| > y^β min(...).
	X, Y uint64
	// Universe is n = y^{γ/2}.
	Universe int
	Seed     uint64
}

// NewDisj2Pair builds one Yes/No instance pair for Lemma 27. Player 1
// inserts x copies of each element of S1; player 2 inserts y copies of
// every element NOT in S2 (per the g(x+y) <= g(x) case of the proof). No
// experiment runs it; TestDisj2PairGap holds it.
func NewDisj2Pair(cfg Disj2Config, trial int) InstancePair {
	rng := util.NewSplitMix64(cfg.Seed + uint64(trial)*0x8449)
	n := uint64(cfg.Universe)
	if n < 4 {
		n = 4
	}
	g := cfg.G
	// S1 and S2 random with |S1| = |S2| = n/4; intersecting instance has
	// exactly one common element.
	size := int(n / 4)
	build := func(intersecting bool) (*stream.Stream, float64) {
		s1 := randomSubset(rng, n, size)
		var common uint64
		s2 := make(map[uint64]struct{}, size)
		if intersecting {
			for k := range s1 {
				common = k
				break
			}
			s2[common] = struct{}{}
		}
		for len(s2) < size {
			c := rng.Uint64n(n)
			if _, in1 := s1[c]; in1 {
				if !intersecting || c != common {
					continue
				}
			}
			s2[c] = struct{}{}
		}
		st := stream.New(n)
		for it := range s1 {
			st.AddCopies(it, int64(cfg.X))
		}
		for it := uint64(0); it < n; it++ {
			if _, in2 := s2[it]; !in2 {
				st.AddCopies(it, int64(cfg.Y))
			}
		}
		// Exact g-SUM of this stream.
		var sum float64
		for it := uint64(0); it < n; it++ {
			_, in1 := s1[it]
			_, in2 := s2[it]
			switch {
			case in1 && !in2:
				sum += g.Eval(cfg.X + cfg.Y)
			case in1 && in2:
				sum += g.Eval(cfg.X)
			case !in1 && !in2:
				sum += g.Eval(cfg.Y)
			}
		}
		return st, sum
	}
	yes, yesSum := build(true)
	no, noSum := build(false)
	return orient(yes, no, yesSum, noSum)
}

// orient packages the pair so that Yes always carries the larger g-SUM,
// matching the harness convention.
func orient(yes, no *stream.Stream, yesSum, noSum float64) InstancePair {
	if yesSum >= noSum {
		return InstancePair{Yes: yes, No: no, GapLow: noSum, GapHigh: yesSum}
	}
	return InstancePair{Yes: no, No: yes, GapLow: yesSum, GapHigh: noSum}
}
