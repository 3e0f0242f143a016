package recursive

import (
	"fmt"

	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xhash"
)

// Batch ingestion for the recursive sketch. The nested sub-universes
// U_0 ⊇ U_1 ⊇ ... make batch routing a cascade of filters: level 0 sees
// the whole batch and level k+1 sees the survivors of the level-k
// subsampling hash. A batch is collapsed ONCE, by the stack's owner, into
// one sketch.Batch (distinct items in first-seen order, net deltas, each
// item's powers mod 2^61-1); every level is handed that same Batch, and
// between two levels it is narrowed in place to the next sub-universe.
// Collapsing per level would be redundant, not different: the filter of a
// first-seen order is the first-seen order of the filter. The Batch's
// buffers are reused across batches, so routing allocates only on the
// first few, and a batch past sketch.KeepBatch updates is collapsed into
// a one-off Batch instead (sketch.Batch.For).

// Cascade collapses batch into b and routes it down the nested
// sub-universes: feed(k, b) sees b holding the batch's distinct items
// that belong to U_k, with their net deltas, for every k until a level
// receives nothing. The one-pass and the two-pass stack both route through
// it.
func Cascade(b *sketch.Batch, batch []stream.Update, sub []*xhash.Bernoulli, feed func(level int, b *sketch.Batch)) {
	if len(batch) == 0 {
		return
	}
	b = b.For(len(batch))
	b.Collapse(batch)
	for k := 0; ; k++ {
		feed(k, b)
		if k == len(sub) {
			return
		}
		if b.Subsample(sub[k]); b.Len() == 0 {
			return
		}
	}
}

// UpdateBatch feeds a batch of turnstile updates to every level whose
// sub-universe contains each item. The counter state is identical to
// per-update ingestion; the batch is collapsed once for all levels.
func (s *Sketch) UpdateBatch(batch []stream.Update) {
	Cascade(&s.plan, batch, s.sub, func(k int, b *sketch.Batch) {
		s.levels[k].Apply(b)
	})
}

// Pass1Batch feeds a batch to the identification pass at every level
// containing each item.
func (s *TwoPass) Pass1Batch(batch []stream.Update) {
	Cascade(&s.plan, batch, s.sub, func(k int, b *sketch.Batch) {
		s.levels[k].Pass1Apply(b)
	})
}

// Pass2Batch feeds a batch to the tabulation pass at every level
// containing each item.
func (s *TwoPass) Pass2Batch(batch []stream.Update) {
	Cascade(&s.plan, batch, s.sub, func(k int, b *sketch.Batch) {
		s.levels[k].Pass2Apply(b)
	})
}

// MergePass1 folds another two-pass recursive sketch's first-pass state
// (same configuration and seed) into s, level by level. Call before
// FinishPass1, exactly as with Sketch.Merge.
func (s *TwoPass) MergePass1(other *TwoPass) error {
	if len(s.levels) != len(other.levels) {
		return fmt.Errorf("recursive: level count mismatch %d vs %d",
			len(s.levels), len(other.levels))
	}
	for k := range s.levels {
		if err := s.levels[k].MergePass1(other.levels[k]); err != nil {
			return fmt.Errorf("recursive: level %d: %w", k, err)
		}
	}
	return nil
}

// AdoptCandidates copies the per-level candidate sets extracted by
// from.FinishPass1 into s (replacing FinishPass1 on the adopting side),
// so a worker can tabulate its shard against the coordinator's
// candidates.
func (s *TwoPass) AdoptCandidates(from *TwoPass) error {
	if len(s.levels) != len(from.levels) {
		return fmt.Errorf("recursive: level count mismatch %d vs %d",
			len(s.levels), len(from.levels))
	}
	for k := range s.levels {
		s.levels[k].AdoptCandidates(from.levels[k])
	}
	return nil
}

// MergePass2 adds another sketch's second-pass tabulations into s; both
// sides must hold the same candidate sets (AdoptCandidates).
func (s *TwoPass) MergePass2(other *TwoPass) error {
	if len(s.levels) != len(other.levels) {
		return fmt.Errorf("recursive: level count mismatch %d vs %d",
			len(s.levels), len(other.levels))
	}
	for k := range s.levels {
		s.levels[k].MergePass2(other.levels[k])
	}
	return nil
}
