package core

import (
	"repro/internal/stream"
	"repro/internal/util"
)

// ProcessParallel ingests the whole stream over `workers` contiguous
// chunks (< 1 means GOMAXPROCS), each of at least stream.BatchSize
// updates: chunk 0 goes into e, every other chunk into a fresh estimator
// built from e's resolved Options (same seeds, envelope pinned), and the
// clones are merged into e in chunk order and dropped. The sketch is
// linear, so the counters equal a serial Process's bit for bit at any
// worker count, and the whole state — trackers included — is a constant
// of (stream, workers), never of scheduling. Past a tracker's capacity
// its candidates may differ from serial's on ties (see Merge). While it
// runs it holds one stack per chunk; afterwards only e's. With one chunk
// (workers ≤ 1, or under 2·stream.BatchSize updates) it is Process.
func (e *OnePassEstimator) ProcessParallel(s *stream.Stream, workers int) error {
	updates := s.Updates()
	w := min(util.Workers(workers), len(updates)/stream.BatchSize)
	if w <= 1 {
		e.Process(s)
		return nil
	}
	ests := make([]*OnePassEstimator, w)
	ests[0] = e
	util.ParallelChunks(updates, w, func(i int, chunk []stream.Update) {
		if ests[i] == nil {
			ests[i] = NewOnePass(e.g, e.opts)
		}
		stream.Batches(chunk, ests[i].sk.UpdateBatch)
	})
	for _, c := range ests[1:] {
		if err := e.Merge(c); err != nil {
			return err
		}
	}
	return nil
}

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
