package heavy

import (
	"fmt"

	"repro/internal/gfunc"
	"repro/internal/sketch"
	"repro/internal/util"
)

// TwoPass implements Algorithm 1, the 2-pass (g, λ, 0, δ)-heavy-hitter
// algorithm:
//
//	First pass:  S ← CountSketch(λ/2H(M), 1/3, δ), keeping only the
//	             identities of the top 2H(M)/λ estimated items.
//	Second pass: tabulate v_j exactly for every j ∈ S.
//	Return (j, v_j) for all j ∈ S.
//
// By Lemma 17/18, every (g, λ)-heavy hitter of a slow-jumping and
// slow-dropping g is an F2 λ/2H(M)-heavy hitter, so the CountSketch pass
// finds them all; the exact second pass removes any dependence on the local
// variability of g, which is why predictability is not needed (Theorem 3).
type TwoPass struct {
	g      gfunc.Func
	cs     *sketch.CountSketch
	topk   int
	cands  []uint64
	counts map[uint64]int64
	done   bool
}

// TwoPassConfig configures Algorithm 1.
type TwoPassConfig struct {
	G      gfunc.Func
	Lambda float64 // heaviness λ
	Delta  float64 // failure probability δ
	// H is the envelope H(M) of the function (gfunc.MeasureEnvelope). The
	// sketch width scales with it; intractable functions force it (and
	// hence the space) to grow polynomially.
	H float64
	// WidthFactor scales the bucket count for experiment sweeps; 0 means 1.
	WidthFactor float64
}

// NewTwoPass returns a fresh Algorithm 1 instance.
func NewTwoPass(cfg TwoPassConfig, rng *util.SplitMix64) *TwoPass {
	wf := cfg.WidthFactor
	if wf == 0 {
		wf = 1
	}
	h := cfg.H
	if h < 1 {
		h = 1
	}
	// Pass 1 needs only identification, not (1±ε) estimates, so ε = 1/3
	// as in the paper's Algorithm 1.
	rows, buckets, topk := dims(cfg.Lambda/2, 1.0/3, cfg.Delta, h, wf)
	return &TwoPass{
		g:      cfg.G,
		cs:     sketch.NewCountSketchTopK(rows, buckets, topk, rng.Fork()),
		topk:   topk,
		counts: make(map[uint64]int64),
	}
}

// Pass1 feeds an update to the identification pass.
func (t *TwoPass) Pass1(item uint64, delta int64) {
	t.cs.Update(item, delta)
}

// FinishPass1 extracts the candidate identities, discarding the estimated
// frequencies exactly as Algorithm 1 specifies.
func (t *TwoPass) FinishPass1() {
	for _, c := range t.cs.TopK() {
		t.cands = append(t.cands, c.Item)
		t.counts[c.Item] = 0
	}
}

// Pass2 tabulates exact frequencies for the candidates.
func (t *TwoPass) Pass2(item uint64, delta int64) {
	if _, ok := t.counts[item]; ok {
		t.counts[item] += delta
	}
}

// Cover returns (j, v_j, g(|v_j|)) for every candidate with nonzero
// frequency. Weights are exact, i.e. this is a (g, λ, 0)-cover.
func (t *TwoPass) Cover() Cover {
	t.done = true
	cover := make(Cover, 0, len(t.cands))
	for _, it := range t.cands {
		f := t.counts[it]
		if f == 0 {
			continue
		}
		cover = append(cover, Entry{
			Item:   it,
			Freq:   f,
			Weight: t.g.Eval(uint64(util.SatAbsInt64(f))),
		})
	}
	cover.sortByWeight()
	return cover
}

// AdoptRowHashes makes t's first-pass CountSketch evaluate the row-hash
// family of from's, if from is a *TwoPass of the same dimensions (see
// OnePass.AdoptRowHashes).
func (t *TwoPass) AdoptRowHashes(from any) {
	if f, ok := from.(*TwoPass); ok {
		t.cs.ShareRowHashes(f.cs)
	}
}

// Capacity returns how many candidates the first pass keeps for the
// second to tabulate exactly (see OnePass.Capacity).
func (t *TwoPass) Capacity() int { return t.topk }

// SpaceBytes reports the CountSketch counters plus the candidate table
// (16 bytes per candidate).
func (t *TwoPass) SpaceBytes() int {
	return t.cs.SpaceBytes() + t.topk*16
}

// Pass1Apply feeds a collapsed batch (see sketch.Batch) to the
// identification pass: the CountSketch row walk and tracker re-score.
func (t *TwoPass) Pass1Apply(b *sketch.Batch) {
	t.cs.Apply(b)
}

// Pass2Apply tabulates a collapsed batch in the second pass: exact counts
// add, so net deltas leave what the batch's updates would.
func (t *TwoPass) Pass2Apply(b *sketch.Batch) {
	b.Each(t.Pass2)
}

// MergePass1 folds another instance's first-pass state (same
// configuration and seed) into t: CountSketch counters add linearly and
// the candidate trackers merge by re-scoring against the merged
// counters. Call before FinishPass1.
func (t *TwoPass) MergePass1(other *TwoPass) error {
	if t.topk != other.topk {
		return fmt.Errorf("heavy: TwoPass merge config mismatch")
	}
	return t.cs.MergeTopK(other.cs)
}

// AdoptCandidates copies the candidate set extracted by from.FinishPass1
// into t and resets the tabulation counts, so that a worker can run
// Pass2 over its shard against the coordinator's candidate set. It
// replaces FinishPass1 on the adopting side.
func (t *TwoPass) AdoptCandidates(from *TwoPass) {
	t.cands = append(t.cands[:0], from.cands...)
	t.counts = make(map[uint64]int64, len(t.cands))
	for _, it := range t.cands {
		t.counts[it] = 0
	}
}

// MergePass2 adds another instance's second-pass tabulation into t. Both
// sides must hold the same candidate set (AdoptCandidates); exact counts
// add linearly, so the merged tabulation equals a single pass over the
// union stream.
func (t *TwoPass) MergePass2(other *TwoPass) {
	for it, c := range other.counts {
		if _, ok := t.counts[it]; ok {
			t.counts[it] += c
		}
	}
}

// RunTwoPass runs Algorithm 1 over a replayable update sequence and
// returns the cover. each must iterate the same updates on every call.
func RunTwoPass(cfg TwoPassConfig, rng *util.SplitMix64, each func(fn func(item uint64, delta int64))) Cover {
	t := NewTwoPass(cfg, rng)
	each(t.Pass1)
	t.FinishPass1()
	each(t.Pass2)
	return t.Cover()
}
