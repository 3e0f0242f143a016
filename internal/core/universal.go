package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/recursive"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/xhash"
)

// Universal is the function-independent linear sketch of Section 1.1.1:
// one pass over the stream builds CountSketch + AMS state at every
// recursive level, and EstimateFor(g) extracts a g-SUM estimate for any
// tractable g afterwards. The form of the sketch is independent of g, so
// a family {g_θ : θ ∈ Θ} can be queried from a single pass — each answer
// correct with the sketch's probability, amplified by O(log |Θ|)
// repetition in the MLE application (internal/mle).
//
// The sketch must be sized for the worst envelope in the family: pass the
// max of gfunc.MeasureEnvelope(g_θ, M).H() over θ as Options.Envelope.
type Universal struct {
	levels []*heavy.OnePass
	sub    []*xhash.Bernoulli
	opts   Options      // resolved options, digested by Fingerprint
	plan   sketch.Batch // the collapsed batch UpdateBatch hands down the levels
}

// mergeOnePassLevels folds the per-level OnePass states of src into dst
// (same configuration and seed at every level).
func mergeOnePassLevels(dst, src []*heavy.OnePass) error {
	if len(dst) != len(src) {
		return fmt.Errorf("core: level count mismatch %d vs %d", len(dst), len(src))
	}
	for k := range dst {
		if err := dst[k].Merge(src[k]); err != nil {
			return fmt.Errorf("core: level %d: %w", k, err)
		}
	}
	return nil
}

// NewUniversal builds a universal g-SUM sketch. Options.Envelope must be
// set (there is no g to measure it from); zero falls back to 1. Its random
// choices are NewOnePass's at the same Options: the level sketchers fork
// from one generator, the subsampling hashes from the next.
func NewUniversal(opts Options) *Universal {
	o := opts.withDefaults()
	h := o.Envelope
	if h < 1 {
		h = 1
	}
	rng := util.NewSplitMix64(o.Seed)
	hhRng := rng.Fork()
	levels := recursive.BuildLevels(o.N, o.Levels, func(int) *heavy.OnePass {
		return heavy.NewOnePass(heavy.OnePassConfig{
			// G is only a default for Cover(); EstimateFor supplies the
			// real query function.
			G:           gfunc.F2Func(),
			Lambda:      o.Lambda,
			Eps:         o.Eps,
			Delta:       o.Delta,
			H:           h,
			WidthFactor: o.WidthFactor,
		}, hhRng.Fork())
	})
	o.Levels = len(levels) - 1 // Levels 0 and the depth it resolves to are one sketch
	return &Universal{levels: levels, sub: recursive.Subsamplers(o.Levels, rng.Fork()), opts: o}
}

// Update feeds one turnstile update.
func (u *Universal) Update(item uint64, delta int64) {
	u.levels[0].Update(item, delta)
	for k := 0; k < len(u.sub); k++ {
		if !u.sub[k].Hash(item) {
			return
		}
		u.levels[k+1].Update(item, delta)
	}
}

// UpdateBatch feeds a batch of turnstile updates, collapsed once and
// routed down the subsampling levels exactly as per-update ingestion
// would route it.
func (u *Universal) UpdateBatch(batch []stream.Update) {
	recursive.Cascade(&u.plan, batch, u.sub, func(k int, b *sketch.Batch) {
		u.levels[k].Apply(b)
	})
}

// Process consumes an entire stream through the batched ingestion path.
func (u *Universal) Process(s *stream.Stream) {
	engine.Ingest(u, s.Updates(), 0)
}

// EstimateFor returns the g-SUM estimate for g from the frozen sketch
// state. It can be called many times with different functions.
func (u *Universal) EstimateFor(g gfunc.Func) float64 {
	covers := make([]heavy.Cover, len(u.levels))
	for k := range u.levels {
		covers[k] = u.levels[k].CoverFor(g)
	}
	return recursive.CombineCovers(covers, func(level int, item uint64) bool {
		return u.sub[level].Hash(item)
	})
}

// SpaceBytes reports total counter storage.
func (u *Universal) SpaceBytes() int {
	total := 0
	for _, lv := range u.levels {
		total += lv.SpaceBytes()
	}
	return total
}

// Depth reports the resolved number of subsampling levels and how full the
// deepest level's candidate tracker is (see OnePassEstimator.Depth).
func (u *Universal) Depth() (levels, deepestTracked, deepestCapacity int) {
	deepestTracked, deepestCapacity = recursive.DeepestOf(u.levels)
	return len(u.sub), deepestTracked, deepestCapacity
}

// Dims reports every level's CountSketch rows and buckets.
func (u *Universal) Dims() (rows int, buckets uint64) { return recursive.DimsOf(u.levels) }

// Merge folds another universal sketch (built with identical Options,
// including Seed) into u, level by level — the distributed-sketching
// mode of the Section 1.1.1 application.
func (u *Universal) Merge(other *Universal) error {
	return mergeOnePassLevels(u.levels, other.levels)
}
