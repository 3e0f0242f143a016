package engine

import (
	"runtime"
	"sync"

	"repro/internal/stream"
)

// Sketcher is the unified ingestion contract shared by every summary in
// the repository: the raw linear sketches (sketch.CountSketch,
// sketch.AMS, sketch.CountMin), the heavy-hitter layer (heavy.OnePass),
// the recursive sketch (recursive.Sketch), and the public estimators
// (core.OnePassEstimator, core.TwoPassEstimator, core.ExactEstimator).
type Sketcher interface {
	// Update feeds one turnstile update (item, delta).
	Update(item uint64, delta int64)
	// SpaceBytes reports counter storage, the quantity the paper's space
	// bounds govern.
	SpaceBytes() int
}

// BatchSketcher is a Sketcher with an amortized bulk ingestion path.
// UpdateBatch(batch) must leave the counter state exactly as the
// equivalent sequence of Update calls would (linearity); auxiliary
// heuristic state such as top-k candidate trackers may be maintained
// with batch granularity.
type BatchSketcher interface {
	Sketcher
	UpdateBatch(batch []stream.Update)
}

// Mergeable is the distributed half of the contract: folding another
// identically-configured (same Options, same Seed) instance into the
// receiver yields the state of the union stream.
type Mergeable[S any] interface {
	Merge(other S) error
}

// DefaultBatchSize is the chunk size Ingest uses when callers pass 0.
// Large enough to amortize per-batch overhead (duplicate aggregation,
// top-k re-scores), small enough to keep the collapsed batch and its
// scratch cache-resident.
const DefaultBatchSize = 4096

// Workers resolves a requested worker count: values < 1 mean GOMAXPROCS.
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Cut returns the half-open range [lo, hi) of chunk i when n items are
// split into w contiguous near-equal chunks.
func Cut(n, w, i int) (lo, hi int) {
	return i * n / w, (i + 1) * n / w
}

// Ingest feeds updates to sk, using the batch path when available.
// batchSize <= 0 means DefaultBatchSize.
func Ingest(sk Sketcher, updates []stream.Update, batchSize int) {
	bs, ok := sk.(BatchSketcher)
	if !ok {
		for _, u := range updates {
			sk.Update(u.Item, u.Delta)
		}
		return
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	for lo := 0; lo < len(updates); lo += batchSize {
		hi := lo + batchSize
		if hi > len(updates) {
			hi = len(updates)
		}
		bs.UpdateBatch(updates[lo:hi])
	}
}

// ParallelChunks splits updates into workers contiguous chunks and calls
// fn(i, chunk) concurrently, one goroutine per non-empty chunk. It
// returns after every call finishes. fn must not touch state shared with
// other chunk indices. With workers <= 1 it calls fn(0, updates) inline.
func ParallelChunks(updates []stream.Update, workers int, fn func(shard int, chunk []stream.Update)) {
	if workers <= 1 || len(updates) <= 1 {
		fn(0, updates)
		return
	}
	if workers > len(updates) {
		workers = len(updates)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		lo, hi := Cut(len(updates), workers, i)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(i int, chunk []stream.Update) {
			defer wg.Done()
			fn(i, chunk)
		}(i, updates[lo:hi])
	}
	wg.Wait()
}
