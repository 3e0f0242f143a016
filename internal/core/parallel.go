package core

import (
	"repro/internal/stream"
	"repro/internal/util"
)

// RunParallel executes both passes of the two-pass estimator over
// `workers` contiguous chunks of the stream (< 1 means GOMAXPROCS).
// Pass 1 runs on per-worker shards and merges (the CountSketch state is
// linear); the coordinator extracts the candidate sets once, distributes
// them to the workers, and pass 2 tabulates each chunk exactly — exact
// counts add linearly too, so the result equals a serial Run.
func (e *TwoPassEstimator) RunParallel(s *stream.Stream, workers int) (float64, error) {
	w := util.Workers(workers)
	updates := s.Updates()
	if w <= 1 || len(updates) <= 1 {
		return e.Run(s), nil
	}
	if w > len(updates) {
		w = len(updates)
	}
	ests := make([]*TwoPassEstimator, w)
	ests[0] = e
	util.ParallelChunks(updates, w, func(i int, chunk []stream.Update) {
		if ests[i] == nil {
			ests[i] = NewTwoPass(e.g, e.opts)
		}
		stream.Batches(chunk, ests[i].sk.Pass1Batch)
	})
	for i := 1; i < w; i++ {
		if err := e.sk.MergePass1(ests[i].sk); err != nil {
			return 0, err
		}
	}
	e.FinishPass1()
	for i := 1; i < w; i++ {
		if err := ests[i].sk.AdoptCandidates(e.sk); err != nil {
			return 0, err
		}
	}
	util.ParallelChunks(updates, w, func(i int, chunk []stream.Update) {
		stream.Batches(chunk, ests[i].sk.Pass2Batch)
	})
	for i := 1; i < w; i++ {
		if err := e.sk.MergePass2(ests[i].sk); err != nil {
			return 0, err
		}
	}
	return e.sk.Estimate(), nil
}
