package core

import (
	"reflect"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
)

// denseLevels counts the CountSketches of a stack that hold their counter
// matrix (the rest are still tables, sketch.CountSketch.ResidentBytes).
func denseLevels(e *OnePassEstimator) (dense, all int) {
	walkStructs(reflect.ValueOf(e), map[uintptr]bool{}, func(v reflect.Value) bool {
		if v.Type() != reflect.TypeOf(sketch.CountSketch{}) {
			return true
		}
		cs := reflect.NewAt(v.Type(), v.Addr().UnsafePointer()).Interface().(*sketch.CountSketch)
		if cs.ResidentBytes() == cs.SpaceBytes() {
			dense++
		}
		all++
		return false
	})
	return dense, all
}

// TestUpdateBatchSteadyStateAllocFree is the allocation gate of the
// serial ingest path at the repo benchmark's dimensions (bench/
// workloads.go: 14 levels of 5 x 2048 counters, batches of 4096): once
// the stack's one collapsed batch, the trackers and the levels' tables
// have grown, a batch allocates nothing at any level, near-distinct or
// duplicate-heavy — with the deep levels still tables, and on a stream
// whose growing support carried some levels past the table limit during
// the warm-up.
func TestUpdateBatchSteadyStateAllocFree(t *testing.T) {
	opts := Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7}
	opts.Envelope = EnvelopeFor(gfunc.F2Func(), opts)
	rng := util.NewSplitMix64(19)
	draw := func(universe func(k int) uint64) [][]stream.Update {
		batches := make([][]stream.Update, 4)
		for k := range batches {
			batches[k] = make([]stream.Update, 4096)
			for i := range batches[k] {
				batches[k][i] = stream.Update{Item: rng.Uint64n(universe(k)), Delta: int64(rng.Uint64n(9)) - 4}
			}
		}
		return batches
	}
	for _, tc := range []struct {
		name     string
		batches  [][]stream.Update
		crossing bool
	}{
		// Near-distinct and mostly duplicates, alternately.
		{"mixed", draw(func(k int) uint64 { return []uint64{1 << 19, 1 << 9}[k%2] }), false},
		// 2^9 … 2^12 items: level 0 passes the limit in the third batch,
		// level 1 in the fourth.
		{"crossing", draw(func(k int) uint64 { return 1 << (9 + k) }), true},
	} {
		e := NewOnePass(gfunc.F2Func(), opts)
		e.UpdateBatch(tc.batches[0])
		first, _ := denseLevels(e)
		for i := 1; i < 8; i++ { // warm-up: grow the scratch, the tables and the trackers
			e.UpdateBatch(tc.batches[i%len(tc.batches)])
		}
		dense, all := denseLevels(e)
		if dense == all || (tc.crossing && !(first == 0 && dense > 0)) {
			t.Fatalf("%s: %d of %d levels dense after the warm-up (%d after one batch): want tables left, and on the crossing stream levels that crossed",
				tc.name, dense, all, first)
		}
		i := 0
		if allocs := testing.AllocsPerRun(20, func() {
			e.UpdateBatch(tc.batches[i%len(tc.batches)])
			i++
		}); allocs != 0 {
			t.Errorf("%s: UpdateBatch allocated %.1f times per batch at steady state, want 0", tc.name, allocs)
		}
	}
}
