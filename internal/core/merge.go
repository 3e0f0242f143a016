package core

// Merge folds another one-pass estimator (built with identical Options,
// including Seed) into e, yielding the estimator state of the union
// stream. This is the distributed-sketching mode: shard the stream across
// workers, give every worker the same Options, merge the results.
//
// The merged counter state is bit-identical to a serial run over the
// union stream for ANY partition (integer addition commutes). Estimates
// are exactly equal too while the per-level top-k candidate trackers do
// not overflow (capacity 2H/λ + 1, the size the space bounds dictate).
// Past that capacity the serial and merged trackers may admit marginally
// different LIGHT candidates — genuinely heavy items survive both — so
// estimates agree far inside the ε target but not necessarily to the
// last bit.
func (e *OnePassEstimator) Merge(other *OnePassEstimator) error {
	return e.sk.Merge(other.sk)
}
