package core

import (
	"testing"

	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

// The merge promise: cut a stream into contiguous chunks, ingest each into
// its own identically-seeded estimator, fold them with Merge, and the
// counter state is bit-identical to a serial run (integer addition
// commutes), candidate trackers re-score against the merged counters, and
// covers combine in a deterministic order. While the top-k candidate
// trackers do not overflow — the regime their capacity 2H/λ + 1 is sized
// for — the candidate sets coincide too and estimates are EXACTLY equal,
// so these tests assert float64 equality, not tolerances. Streams with
// more distinct items than tracker capacity may admit marginally
// different light candidates serial vs merged;
// TestMergeOverflowRegimeCloseAgreement pins that case to a tolerance far
// inside the accuracy target.

// parallelTestStream keeps the distinct-item count (90) below every
// level's tracker capacity so that exact serial/merged agreement is
// guaranteed, not incidental.
func parallelTestStream(seed uint64) *stream.Stream {
	return stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 90, 1.1)
}

// cutAndMerge ingests each of `workers` contiguous chunks of s into its
// own shard from newShard, concurrently, then folds shards 1..W-1 into
// shard 0 in index order.
func cutAndMerge[S interface{ UpdateBatch([]stream.Update) }](t *testing.T, s *stream.Stream, workers int,
	newShard func() S, merge func(dst, src S) error) S {
	t.Helper()
	shards := make([]S, workers)
	for i := range shards {
		shards[i] = newShard()
	}
	util.ParallelChunks(s.Updates(), workers, func(i int, chunk []stream.Update) {
		stream.Batches(chunk, shards[i].UpdateBatch)
	})
	for i := 1; i < workers; i++ {
		if err := merge(shards[0], shards[i]); err != nil {
			t.Fatalf("merge shard %d: %v", i, err)
		}
	}
	return shards[0]
}

func cutAndMergeOnePass(t *testing.T, g gfunc.Func, opts Options, s *stream.Stream, workers int) *OnePassEstimator {
	t.Helper()
	return cutAndMerge(t, s, workers,
		func() *OnePassEstimator { return NewOnePass(g, opts) },
		(*OnePassEstimator).Merge)
}

func TestOnePassCutAndMergeMatchesSerialExactly(t *testing.T) {
	g := gfunc.F2Func()
	for _, workers := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			s := parallelTestStream(seed)
			opts := Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 777, Lambda: 1.0 / 16}

			serial := NewOnePass(g, opts)
			serial.Process(s)

			merged := cutAndMergeOnePass(t, g, opts, s, workers)

			if a, b := serial.Estimate(), merged.Estimate(); a != b {
				t.Errorf("workers=%d seed=%d: merged %.17g != serial %.17g",
					workers, seed, b, a)
			}
		}
	}
}

func TestTwoPassRunParallelMatchesSerialExactly(t *testing.T) {
	g := gfunc.X2Log()
	for _, workers := range []int{2, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			s := parallelTestStream(seed)
			opts := Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 99, Lambda: 1.0 / 16}

			serial := NewTwoPass(g, opts)
			want := serial.Run(s)

			par := NewTwoPass(g, opts)
			got, err := par.RunParallel(s, workers)
			if err != nil {
				t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
			}
			if got != want {
				t.Errorf("workers=%d seed=%d: parallel %.17g != serial %.17g",
					workers, seed, got, want)
			}
		}
	}
}

func TestMergeOverflowRegimeCloseAgreement(t *testing.T) {
	// With more distinct items than the candidate trackers can hold, the
	// serial and merged trackers may disagree about marginal light items.
	// Counters still merge exactly, so any difference is confined to
	// borderline cover entries — orders of magnitude inside the ε target.
	g := gfunc.F2Func()
	s := stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: 8}, 400, 1.1)
	opts := Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 777, Lambda: 1.0 / 16}

	serial := NewOnePass(g, opts)
	serial.Process(s)

	merged := cutAndMergeOnePass(t, g, opts, s, 4)
	a, b := serial.Estimate(), merged.Estimate()
	if diff := (a - b) / a; diff > 1e-3 || diff < -1e-3 {
		t.Errorf("overflow-regime divergence %.3g: merged %.17g vs serial %.17g", diff, b, a)
	}
}
