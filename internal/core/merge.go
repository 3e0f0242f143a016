package core

import "repro/internal/stream"

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

// ShardAndMerge is a convenience harness (used by tests, benches, and
// examples/distributed): it splits the stream round-robin into `shards`
// estimators with identical options, processes each shard independently,
// merges everything into the first estimator, and returns it.
func ShardAndMerge(g estimatorFactory, s *stream.Stream, shards int) (*OnePassEstimator, error) {
	if shards < 1 {
		shards = 1
	}
	workers := make([]*OnePassEstimator, shards)
	for i := range workers {
		workers[i] = g()
	}
	i := 0
	s.Each(func(u stream.Update) {
		workers[i%shards].Update(u.Item, u.Delta)
		i++
	})
	for _, w := range workers[1:] {
		if err := workers[0].Merge(w); err != nil {
			return nil, err
		}
	}
	return workers[0], nil
}

// estimatorFactory builds identically-configured estimators (same Options
// and Seed) for the sharding harness.
type estimatorFactory func() *OnePassEstimator
