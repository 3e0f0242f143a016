package recursive

import (
	"fmt"

	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/sketch"
	"repro/internal/util"
	"repro/internal/xhash"
)

// Config parameterizes the recursive sketch.
type Config struct {
	// N is the domain size.
	N uint64
	// Levels is the number of subsampling levels below level 0
	// (0 = depth from capacity, see Depth; at most 30).
	Levels int
	// MakeSketcher builds the per-level heavy-hitter algorithm. Level 0
	// sees the full stream; deeper levels see subsampled streams.
	MakeSketcher func(level int) heavy.Sketcher
}

// Sketch is a one-pass recursive g-SUM sketch.
type Sketch struct {
	levels []heavy.Sketcher
	sub    []*xhash.Bernoulli // sub[k] gates membership of U_{k+1} within U_k
	plan   sketch.Batch       // the collapsed batch UpdateBatch hands down the levels
}

// Depth resolves a stack's number of subsampling levels L (the stack holds
// L+1 level sketchers over U_0 ⊇ … ⊇ U_L) for a domain of n items. An
// explicit levels wins; 0 asks for the depth at which the recursion has
// nothing left to add, given capacity, the number of items one level's
// sketcher tracks exactly (its candidate tracker's size; 0 = unknown):
//
//	L = ⌈log2(n/capacity)⌉ + 1, at most ⌈log2 n⌉; in any case 1 ≤ L ≤ 30.
//
// Why stopping there is Theorem 13's recursion and not a cut of it. The
// induction's base case asks level L for a (1±ε) cover of everything in
// U_L, nothing more. At this L, E|U_L| = n/2^L ≤ capacity/2. The
// subsampling hashes are pairwise independent, so Var|U_L| ≤ E|U_L| and by
// Chebyshev P(|U_L| > capacity) ≤ (capacity/2)/(capacity/2)² = 2/capacity
// (0.5% at the benchmark's 385), charged to δ beside the per-level failure
// events the theorem already unions over. On the complement, level L's
// tracker holds all of supp(v) ∩ U_L: the residual F2 behind its error
// window is 0, the window is 0, nothing is pruned, and its cover is U_L's
// whole support — the base case. Every level below it would be in the same
// state and CombineCovers is then the identity on them: Ĝ_{k+1} equals the
// survivors' weight, so Ĝ_k is level k's own sum. When the event fails,
// level L is an ordinary heavy-hitter level, exactly as a middle level is
// at full depth. A sketcher that does not say what it tracks (capacity 0)
// keeps the full ⌈log2 n⌉ levels.
func Depth(n uint64, levels, capacity int) int {
	if n == 0 {
		panic("recursive: domain must be positive")
	}
	if levels == 0 {
		levels = util.Log2Ceil(n)
		if capacity > 0 {
			// ⌈log2(n/c)⌉ = ⌈log2⌈n/c⌉⌉: a power of two is a whole number.
			levels = min(levels, util.Log2Ceil((n-1)/uint64(capacity)+1)+1)
		}
	}
	return max(1, min(levels, 30))
}

// BuildLevels builds a stack's level sketchers: level 0 first, then — the
// depth resolved from what level 0 says it tracks (an optional
// Capacity() int, which heavy.OnePass and heavy.TwoPass have) — levels
// 1…L, each adopting level 0's CountSketch row hashes where it can (an
// optional AdoptRowHashes(from any), which the same two have), so
// that a batch is hashed once for the whole stack. It is the one place a
// stack's shape is decided, for the one-pass and the two-pass stack alike.
func BuildLevels[S any](n uint64, levels int, mk func(level int) S) []S {
	first := mk(0)
	capacity := 0
	if c, ok := any(first).(interface{ Capacity() int }); ok {
		capacity = c.Capacity()
	}
	out := make([]S, Depth(n, levels, capacity)+1)
	out[0] = first
	for k := 1; k < len(out); k++ {
		out[k] = mk(k)
		if a, ok := any(out[k]).(interface{ AdoptRowHashes(from any) }); ok {
			a.AdoptRowHashes(first)
		}
	}
	return out
}

// Subsamplers draws the hashes between consecutive levels: sub[k] keeps
// each item of U_k in U_{k+1} with probability 1/2, pairwise independent.
func Subsamplers(levels int, rng *util.SplitMix64) []*xhash.Bernoulli {
	sub := make([]*xhash.Bernoulli, levels)
	for k := range sub {
		sub[k] = xhash.NewBernoulli(2, 1, 2, rng.Fork())
	}
	return sub
}

// New returns a fresh recursive sketch.
func New(cfg Config, rng *util.SplitMix64) *Sketch {
	if cfg.MakeSketcher == nil {
		panic("recursive: MakeSketcher is required")
	}
	levels := BuildLevels(cfg.N, cfg.Levels, cfg.MakeSketcher)
	return &Sketch{levels: levels, sub: Subsamplers(len(levels)-1, rng)}
}

// Update feeds one turnstile update to every level whose sub-universe
// contains the item. Expected work is O(1) level updates (geometric
// survival), plus level 0 which always fires.
func (s *Sketch) Update(item uint64, delta int64) {
	s.levels[0].Update(item, delta)
	for k := 0; k < len(s.sub); k++ {
		if !s.sub[k].Hash(item) {
			return
		}
		s.levels[k+1].Update(item, delta)
	}
}

// member reports whether item belongs to sub-universe U_k.
func (s *Sketch) member(item uint64, k int) bool {
	for j := 0; j < k; j++ {
		if !s.sub[j].Hash(item) {
			return false
		}
	}
	return true
}

// Estimate assembles the bottom-up estimator from the per-level covers.
// It finalizes the level sketchers, so it must be called once, after the
// stream has been fully consumed.
func (s *Sketch) Estimate() float64 {
	return s.combine(func(_ int, lv heavy.Sketcher) heavy.Cover { return lv.Cover() })
}

// EstimateFor is Estimate for g in place of the function the levels were
// built for: the §1.1.1 universal sketch. A level's state does not depend
// on g, so any g whose envelope the levels were sized for is read out of
// the same state, as many times as asked. Every level reads its cover
// through an optional CoverFor(gfunc.Func) heavy.Cover, which heavy.OnePass
// has; a stack of sketchers without one panics.
func (s *Sketch) EstimateFor(g gfunc.Func) float64 {
	return s.combine(func(k int, lv heavy.Sketcher) heavy.Cover {
		q, ok := lv.(interface{ CoverFor(gfunc.Func) heavy.Cover })
		if !ok {
			panic(fmt.Sprintf("recursive: level %d sketcher %T cannot read a cover for another function", k, lv))
		}
		return q.CoverFor(g)
	})
}

// combine reads every level's cover and combines them bottom-up.
func (s *Sketch) combine(cover func(level int, lv heavy.Sketcher) heavy.Cover) float64 {
	covers := make([]heavy.Cover, len(s.levels))
	for k, lv := range s.levels {
		covers[k] = cover(k, lv)
	}
	return CombineCovers(covers, func(level int, item uint64) bool {
		return s.sub[level].Hash(item)
	})
}

// CombineCovers assembles the bottom-up Braverman-Ostrovsky estimator from
// per-level covers. survives(k, item) must report whether item belongs to
// sub-universe U_{k+1} (i.e. passed the level-k subsampling hash). It is
// exported so that the two-pass sketch reuses the combine step with its
// own cover extraction.
func CombineCovers(covers []heavy.Cover, survives func(level int, item uint64) bool) float64 {
	l := len(covers) - 1
	est := covers[l].WeightSum()
	for k := l - 1; k >= 0; k-- {
		var heavySum, survivorSum float64
		for _, e := range covers[k] {
			heavySum += e.Weight
			if survives(k, e.Item) {
				survivorSum += e.Weight
			}
		}
		est = heavySum + 2*(est-survivorSum)
		if est < heavySum {
			// The doubled remainder went negative (sampling noise on a
			// nearly exhausted tail); clamp to the certain heavy mass.
			est = heavySum
		}
	}
	return est
}

// SpaceBytes reports the total counter storage across levels.
func (s *Sketch) SpaceBytes() int {
	total := 0
	for _, lv := range s.levels {
		total += lv.SpaceBytes()
	}
	return total
}

// Levels returns the number of subsampling levels (excluding level 0).
func (s *Sketch) Levels() int { return len(s.sub) }

// Dims reports every level's CountSketch rows and buckets (see DimsOf).
func (s *Sketch) Dims() (rows int, buckets uint64) { return DimsOf(s.levels) }

// Deepest reports how many candidates the deepest level's sketcher tracks
// and how many it can (both 0 if it does not say): tracked below capacity
// is the condition the stack's depth was chosen for (Depth), read in O(1).
func (s *Sketch) Deepest() (tracked, capacity int) {
	return DeepestOf(s.levels)
}

// DimsOf reports the rows and buckets of a stack's level sketchers (0 if
// they do not say): BuildLevels makes every level alike, so level 0's.
func DimsOf[S any](levels []S) (rows int, buckets uint64) {
	if d, ok := any(levels[0]).(interface{ Dims() (int, uint64) }); ok {
		return d.Dims()
	}
	return 0, 0
}

// DeepestOf is Deepest for any stack's level sketchers.
func DeepestOf[S any](levels []S) (tracked, capacity int) {
	if d, ok := any(levels[len(levels)-1]).(interface {
		Tracked() int
		Capacity() int
	}); ok {
		return d.Tracked(), d.Capacity()
	}
	return 0, 0
}
