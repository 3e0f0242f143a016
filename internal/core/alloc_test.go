package core

import (
	"testing"

	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

// TestUpdateBatchSteadyStateAllocFree is the allocation gate of the
// serial ingest path at the repo benchmark's dimensions (bench/
// workloads.go: 14 levels of 5 x 4096 counters, batches of 4096): once
// the stack's one collapsed batch and the trackers have grown, a batch
// allocates nothing at any level, near-distinct or duplicate-heavy.
func TestUpdateBatchSteadyStateAllocFree(t *testing.T) {
	opts := Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7}
	opts.Envelope = EnvelopeFor(gfunc.F2Func(), opts)
	rng := util.NewSplitMix64(19)
	batches := make([][]stream.Update, 4)
	for k := range batches {
		batches[k] = make([]stream.Update, 4096)
		for i := range batches[k] {
			universe := uint64(1 << 19) // near-distinct
			if k%2 == 1 {
				universe = 1 << 9 // mostly duplicates
			}
			batches[k][i] = stream.Update{Item: rng.Uint64n(universe), Delta: int64(rng.Uint64n(9)) - 4}
		}
	}
	for name, feed := range map[string]func([]stream.Update){
		"onepass": NewOnePass(gfunc.F2Func(), opts).UpdateBatch,
	} {
		for i := 0; i < 8; i++ { // warm-up: grow the scratch and fill the trackers
			feed(batches[i%len(batches)])
		}
		i := 0
		if allocs := testing.AllocsPerRun(20, func() {
			feed(batches[i%len(batches)])
			i++
		}); allocs != 0 {
			t.Errorf("%s: UpdateBatch allocated %.1f times per batch at steady state, want 0", name, allocs)
		}
	}
}
