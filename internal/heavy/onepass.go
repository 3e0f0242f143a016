package heavy

import (
	"math"

	"repro/internal/gfunc"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
)

// OnePass implements Algorithm 2, the 1-pass (g, λ, ε, δ)-heavy-hitter
// algorithm:
//
//	Ŝ, V̂ ← CountSketch(λ/3H(M), ε/2H(M), δ/2)
//	F̂2  ← AMS(ε, δ/2)
//	S   ← { i ∈ Ŝ : |g(v̂_i) - g(v̂_i + y)| ≤ ε g(v̂_i + y)
//	        for all |y| ≤ (ε/2H(M)) √F̂2 }
//	return (j, v̂_j) for j ∈ S
//
// The pruning step is where predictability enters: for a predictable g,
// every genuine (g, λ)-heavy hitter's estimate v̂ sits in a stability
// window wider than the CountSketch error, so it survives, while items
// whose g-value the sketch cannot pin down to (1±ε) are discarded. For an
// unpredictable g the window collapses and genuine heavy hitters are
// pruned — the experimentally visible face of the Lemma 25 lower bound.
type OnePass struct {
	g       gfunc.Func
	cs      *sketch.CountSketch
	eps     float64
	h       float64
	topk    int
	noPrune bool
}

// OnePassConfig configures Algorithm 2.
type OnePassConfig struct {
	G      gfunc.Func
	Lambda float64 // heaviness λ
	Eps    float64 // weight accuracy ε
	Delta  float64 // failure probability δ
	// H is the envelope H(M) from gfunc.MeasureEnvelope.
	H float64
	// WidthFactor scales the bucket count for experiment sweeps; 0 means 1.
	WidthFactor float64
	// DisablePruning turns off the stability pruning (ablation: shows why
	// Algorithm 2 needs the step for unpredictable functions).
	DisablePruning bool
}

// NewOnePass returns a fresh Algorithm 2 instance.
func NewOnePass(cfg OnePassConfig, rng *util.SplitMix64) *OnePass {
	wf := cfg.WidthFactor
	if wf == 0 {
		wf = 1
	}
	h := cfg.H
	if h < 1 {
		h = 1
	}
	rows, buckets, topk := dims(cfg.Lambda/3, cfg.Eps, cfg.Delta/2, h, wf)
	return &OnePass{
		g:       cfg.G,
		cs:      sketch.NewCountSketchTopK(rows, buckets, topk, rng.Fork()),
		eps:     cfg.Eps,
		h:       h,
		topk:    topk,
		noPrune: cfg.DisablePruning,
	}
}

// Update feeds one turnstile update.
func (o *OnePass) Update(item uint64, delta int64) {
	o.cs.Update(item, delta)
}

// UpdateBatch feeds a batch of turnstile updates through the CountSketch
// batch path, which aggregates duplicate items and re-scores the top-k
// tracker once per distinct item instead of once per update.
func (o *OnePass) UpdateBatch(batch []stream.Update) {
	o.cs.UpdateBatch(batch)
}

// Apply feeds a batch its owner already collapsed (see sketch.Batch):
// UpdateBatch without the collapse, for a level of a recursive stack.
func (o *OnePass) Apply(b *sketch.Batch) {
	o.cs.Apply(b)
}

// ErrorWindow returns the additive frequency-error bound the pruning step
// guards against. The paper writes it as (ε/2H(M))√F̂2 for a CountSketch
// sized with λ' = λ/3H, ε' = ε/2H; with the sketch's dimensions made
// explicit the same quantity is the point-query error bound relative to
// the *tail* F2 — §3.1's guarantee is |v̂_ij - v_ij| <= ε (Σ_{j>k} v̄²)^{1/2},
// the residual after the top-k items are excluded — namely 2√(F̂2tail/b).
// F̂2 comes from the CountSketch row norms (an AMS-equivalent estimator;
// see sketch.CountSketch.EstimateF2), so Algorithm 2 needs no second
// structure.
//
// The tail is F̂2 less the squares of the candidates that stand clear of
// the window they imply: the fixed point of
//
//	w ← windowOf(F̂2 − Σ_{|v̂| > τ·w} v̂², b),  from w = windowOf(F̂2, b),
//
// with τ = windowTau. Each step can only narrow the window and so admit
// more candidates, and the candidates come in decreasing |v̂| (TopK), so
// the ones subtracted are a prefix: the walk takes them in order, the
// window narrowed after each, and stops at the first that does not
// clear it. Subtracting every tracked candidate instead (layout
// version 4) fails on a flat stream (EXPERIMENTS.md, "Spending the
// ledger", rounds 4 and 6): there the candidates are the largest of 10^5
// noisy estimates, their squares are a third of F̂2 at 5 × 4096 (0.30–0.34
// from 2^18 to 2^22 items), two thirds at 5 × 2048, and past 1 — window 0,
// nothing pruned, the estimate lost — at 5 × 1024. Noise sits within a
// window or so of zero, so the fixed point leaves it in the tail; a heavy
// item stands clear and comes out. A tracker holding every item of a
// stream still leaves a window near 0, and a frequency-2 or -3 item
// whose rows are shared with other tracked items reads a unit off,
// outside 1 ± ε: per-entry D in TestOnePassCoverFindsExactHeavy. Those
// entries are light: Σ|w − g(v)| over the cover stays inside ε·g-SUM, all
// Theorem 13 takes from a cover, and what the tests hold.
func (o *OnePass) ErrorWindow() int64 {
	return o.errorWindow(o.cs.TopK())
}

// windowTau is τ, how many windows clear of zero a candidate's estimate
// must stand for its square to leave the tail. Priced on the sizing
// frontier (EXPERIMENTS.md, "Spending the ledger, round 6"): at 1 the
// flat stream at a quarter width loses its window as before; 1.5 and 2
// keep it; 2 misses the referee's adversarial cells at half width, and 3
// or more its uniform ones.
const windowTau = 1.5

// errorWindow is ErrorWindow over cands, in decreasing |Est| (TopK's
// order).
func (o *OnePass) errorWindow(cands []sketch.Candidate) int64 {
	tail := o.cs.EstimateF2()
	w := windowOf(tail, o.cs.Buckets())
	for _, c := range cands {
		e := math.Abs(float64(c.Est))
		if !(e > windowTau*float64(w)) {
			break
		}
		tail -= e * e
		w = windowOf(tail, o.cs.Buckets())
	}
	return w
}

// windowOf is the error window 2√(F2tail/b) as a whole number of
// frequency units.
func windowOf(f2tail float64, buckets uint64) int64 {
	w := 2 * math.Sqrt(f2tail/float64(buckets))
	switch {
	case !(w >= 1):
		// The residual tail is below one unit of frequency (or the
		// candidates' squares overshot it): point queries are exact and no
		// stability pruning is warranted. (Flooring this at 1 would
		// permanently prune items with |v| <= 1/ε for g with unit-scale
		// variation, losing their mass at every level.)
		return 0
	case w >= math.MaxInt64:
		// Counters near 2^63 put the window past int64, where Go leaves
		// the conversion to the platform (amd64: MinInt64, a window that
		// prunes nothing). The widest window is the honest answer.
		return math.MaxInt64
	}
	return int64(w)
}

// Cover extracts candidates, prunes unstable ones, and returns the
// surviving (item, v̂, g(|v̂|)) entries. It only reads the counters and
// the tracker, so it may be asked at any point of the stream, and
// updates may follow it.
func (o *OnePass) Cover() Cover {
	return o.CoverFor(o.g)
}

// CoverFor extracts a cover for an arbitrary function g against the same
// sketch state. This is the universal-sketch property the paper's
// Section 1.1.1 application relies on: the linear sketch is independent of
// g, so one pass supports post-hoc queries for a whole family {g_θ}
// (each correct with the sketch's own probability). The sketch width must
// have been sized for an envelope H dominating every queried function.
func (o *OnePass) CoverFor(g gfunc.Func) Cover {
	cands := o.cs.TopK()
	window := o.errorWindow(cands)
	cover := make(Cover, 0, o.topk)
	// Candidates come in decreasing |v̂|, and a flat stream's are long runs
	// of one small value: the verdict and the weight, functions of (g, v,
	// window, ε) alone, are reused along a run.
	var last uint64
	var stable bool
	var weight float64
	for i, c := range cands {
		if c.Est == 0 {
			continue
		}
		if v := uint64(util.SatAbsInt64(c.Est)); i == 0 || v != last {
			last, weight = v, g.Eval(v)
			stable = o.noPrune || stableUnder(g, v, window, o.eps)
		}
		if !stable {
			continue
		}
		cover = append(cover, Entry{
			Item:   c.Item,
			Freq:   c.Est,
			Weight: weight,
		})
	}
	cover.sortByWeight()
	return cover
}

// Capacity returns how many items the candidate tracker holds: a
// substream with no more distinct items than this is tracked whole, which
// is where a recursive stack of these can stop (recursive.Depth).
func (o *OnePass) Capacity() int { return o.topk }

// AdoptRowHashes makes o's CountSketch evaluate the row-hash family of
// from's, if from's has the same dimensions; otherwise o keeps its own
// (sketch.CountSketch.ShareRowHashes). A recursive stack calls it on
// levels 1…L with level 0, before anything is counted.
func (o *OnePass) AdoptRowHashes(from *OnePass) {
	o.cs.ShareRowHashes(from.cs)
}

// Dims returns the CountSketch's rows and buckets, as dims resolved them.
func (o *OnePass) Dims() (rows int, buckets uint64) { return o.cs.Rows(), o.cs.Buckets() }

// FoldCounters folds the CountSketch's counters into the digest h
// (sketch.CountSketch.FoldCounters).
func (o *OnePass) FoldCounters(h uint64) uint64 { return o.cs.FoldCounters(h) }

// Tracked returns how many candidates the tracker holds now; below
// Capacity, every item the substream has carried is among them.
func (o *OnePass) Tracked() int { return o.cs.Tracked() }

// SpaceBytes reports the CountSketch counters plus the candidate table.
func (o *OnePass) SpaceBytes() int {
	return o.cs.SpaceBytes() + o.topk*16
}

// ResidentBytes is SpaceBytes with the counters the CountSketch holds now
// in place of its matrix's size (sketch.CountSketch.ResidentBytes).
func (o *OnePass) ResidentBytes() int {
	return o.cs.ResidentBytes() + o.topk*16
}

// stableUnder reports whether |g(v) - g(v+y)| <= eps * g(v+y) for all
// offsets |y| <= window (clamped to keep v+y >= 0). The scan is dense for
// small offsets and geometric beyond 64, which catches every failure mode
// in the catalog (oscillations reveal themselves within a few steps of
// their wavelength, and the geometric tail covers scale changes).
func stableUnder(g gfunc.Func, v uint64, window int64, eps float64) bool {
	gv := g.Eval(v)
	check := func(z uint64) bool {
		gz := g.Eval(z)
		return math.Abs(gv-gz) <= eps*gz
	}
	probe := func(y int64) bool {
		if y >= 0 {
			return check(v + uint64(y))
		}
		u := uint64(-y)
		if u > v {
			return true // below zero: outside the domain, no constraint
		}
		return check(v - u)
	}
	for y := int64(1); y <= window && y <= 64; y++ {
		if !probe(y) || !probe(-y) {
			return false
		}
	}
	for y := int64(96); y <= window; y += y / 2 {
		if !probe(y) || !probe(-y) {
			return false
		}
		if y > window-y/2 {
			break // the next step passes the window; past 2^62.4 it would also wrap
		}
	}
	if window > 64 {
		if !probe(window) || !probe(-window) {
			return false
		}
	}
	return true
}
