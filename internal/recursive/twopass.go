package recursive

import (
	"repro/internal/heavy"
	"repro/internal/sketch"
	"repro/internal/util"
	"repro/internal/xhash"
)

// TwoPassConfig parameterizes the two-pass recursive sketch, which wires
// Algorithm 1 into the Theorem 13 reduction.
type TwoPassConfig struct {
	N            uint64
	Levels       int // 0 = depth from capacity (see Depth); at most 30
	MakeSketcher func(level int) *heavy.TwoPass
}

// TwoPass is the two-pass variant of the recursive sketch: the stream is
// replayed once for candidate identification and once for exact
// tabulation, at every level.
type TwoPass struct {
	levels []*heavy.TwoPass
	sub    []*xhash.Bernoulli
	plan   sketch.Batch // the collapsed batch Pass1Batch/Pass2Batch hand down the levels
}

// NewTwoPass returns a fresh two-pass recursive sketch.
func NewTwoPass(cfg TwoPassConfig, rng *util.SplitMix64) *TwoPass {
	if cfg.MakeSketcher == nil {
		panic("recursive: MakeSketcher is required")
	}
	levels := buildLevels(cfg.N, cfg.Levels, cfg.MakeSketcher)
	return &TwoPass{levels: levels, sub: Subsamplers(len(levels)-1, rng)}
}

// Pass1 feeds an update to the identification pass at every level
// containing the item.
func (s *TwoPass) Pass1(item uint64, delta int64) {
	s.levels[0].Pass1(item, delta)
	for k := 0; k < len(s.sub); k++ {
		if !s.sub[k].Hash(item) {
			return
		}
		s.levels[k+1].Pass1(item, delta)
	}
}

// FinishPass1 must be called between the passes.
func (s *TwoPass) FinishPass1() {
	for _, lv := range s.levels {
		lv.FinishPass1()
	}
}

// Pass2 feeds an update to the tabulation pass at every level containing
// the item.
func (s *TwoPass) Pass2(item uint64, delta int64) {
	s.levels[0].Pass2(item, delta)
	for k := 0; k < len(s.sub); k++ {
		if !s.sub[k].Hash(item) {
			return
		}
		s.levels[k+1].Pass2(item, delta)
	}
}

// Estimate assembles the bottom-up estimator. Call once, after both passes.
func (s *TwoPass) Estimate() float64 {
	covers := make([]heavy.Cover, len(s.levels))
	for k := range s.levels {
		covers[k] = s.levels[k].Cover()
	}
	return CombineCovers(covers, func(level int, item uint64) bool {
		return s.sub[level].Hash(item)
	})
}

// SpaceBytes reports the total counter storage across levels.
func (s *TwoPass) SpaceBytes() int {
	total := 0
	for _, lv := range s.levels {
		total += lv.SpaceBytes()
	}
	return total
}

// Levels returns the number of subsampling levels (excluding level 0).
func (s *TwoPass) Levels() int { return len(s.sub) }
