package heavy

import "fmt"

// Merge folds another OnePass instance (same configuration and seed, i.e.
// identical hash functions) into o. The result is the Algorithm 2 state
// that a single pass over the concatenated streams would have produced,
// up to the top-k tracker's admission order — candidate sets may differ on
// ties, covers of genuinely heavy items do not. This is what makes the
// one-pass estimator distributable: shard the stream, sketch each shard
// with the same seed, merge.
func (o *OnePass) Merge(other *OnePass) error {
	if o.eps != other.eps || o.h != other.h || o.topk != other.topk {
		return fmt.Errorf("heavy: OnePass merge config mismatch")
	}
	return o.cs.Merge(other.cs)
}
