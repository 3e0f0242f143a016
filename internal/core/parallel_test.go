package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
)

// Merge and ProcessParallel add counters, so below tracker capacity a
// merged or chunk-parallel state equals a serial run's bit for bit:
// TestOracle (internal/daemon) holds every kind to that serial replay at
// 1, 2, 3 and 8 workers, over memory and wire merges. The tests here hold
// what equality cannot: a bound past capacity, where merged trackers may
// admit marginally different light candidates, cancellation, and
// repeatability.

// cutAndMergeOnePass ingests each of `workers` contiguous chunks of s
// into its own estimator, concurrently, then merges estimators 1..W-1
// into estimator 0 in index order.
func cutAndMergeOnePass(t *testing.T, g gfunc.Func, opts Options, s *stream.Stream, workers int) *OnePassEstimator {
	t.Helper()
	shards := make([]*OnePassEstimator, workers)
	for i := range shards {
		shards[i] = NewOnePass(g, opts)
	}
	util.ParallelChunks(s.Updates(), workers, func(i int, chunk []stream.Update) {
		stream.Batches(chunk, shards[i].UpdateBatch)
	})
	for i := 1; i < workers; i++ {
		if err := shards[0].Merge(shards[i]); err != nil {
			t.Fatalf("merge shard %d: %v", i, err)
		}
	}
	return shards[0]
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

// ProcessParallel, the sharded kind's Process, on streams whose distinct
// items overflow the trackers: S then −S cancels to zero however the
// chunks fall, and the whole state is a constant of (stream, workers).

// turnstileStream draws length updates of deltas in [-4, 4] over all of
// [0, n): at parallelOpts.N, 4096 items, past every level's tracker.
func turnstileStream(seed, n uint64, length int) *stream.Stream {
	rng := util.NewSplitMix64(seed)
	s := stream.New(n)
	for i := 0; i < length; i++ {
		s.Add(rng.Uint64n(n), rng.Int63n(9)-4)
	}
	return s
}

// countersOf returns the counter matrix of every CountSketch in a stack,
// as its FoldCounters digest, in the fixed order walkStructs visits them.
func countersOf(sk any) [][]int64 {
	var out [][]int64
	walkStructs(reflect.ValueOf(sk), map[uintptr]bool{}, func(v reflect.Value) bool {
		if v.Type() != reflect.TypeOf(sketch.CountSketch{}) {
			return true
		}
		// Dense or sparse, the sketch replays its matrix to FoldCounters.
		cs := reflect.NewAt(v.Type(), v.Addr().UnsafePointer()).Interface().(*sketch.CountSketch)
		out = append(out, []int64{int64(cs.FoldCounters(0))})
		return false
	})
	return out
}

var parallelOpts = Options{N: 1 << 12, M: 1 << 10, Eps: 0.25, Lambda: 1.0 / 16, Seed: 31}

// TestProcessParallelTurnstilePairCancels: S followed by −S is the zero
// vector, however the chunk boundaries fall across the two halves.
func TestProcessParallelTurnstilePairCancels(t *testing.T) {
	g := gfunc.F2Func()
	half := turnstileStream(3, parallelOpts.N, 5*stream.BatchSize+7).Updates()
	pair := stream.New(parallelOpts.N)
	for _, sign := range []int64{1, -1} {
		for _, u := range half {
			pair.Add(u.Item, sign*u.Delta)
		}
	}
	for _, workers := range []int{2, 3, 4, 7} {
		e := NewOnePass(g, parallelOpts)
		if err := e.ProcessParallel(pair, workers); err != nil {
			t.Fatal(err)
		}
		for i, row := range countersOf(e) {
			for _, c := range row {
				if c != 0 {
					t.Fatalf("workers=%d: CountSketch %d holds a nonzero counter after S, -S", workers, i)
				}
			}
		}
		if est := e.Estimate(); est != 0 {
			t.Errorf("workers=%d: estimate %v after S, -S, want exactly 0", workers, est)
		}
	}
}

// TestProcessParallelIsRepeatable: at a fixed worker count the estimate
// and the snapshot bytes are the same on every run, on a stream whose
// trackers overflow (where admission order could show through).
func TestProcessParallelIsRepeatable(t *testing.T) {
	g := gfunc.F2Func()
	s := turnstileStream(4, parallelOpts.N, 5*stream.BatchSize+7)
	var wantEst float64
	var wantBlob []byte
	for run := 0; run < 100; run++ {
		e := NewOnePass(g, parallelOpts)
		if err := e.ProcessParallel(s, 4); err != nil {
			t.Fatal(err)
		}
		blob, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			wantEst, wantBlob = e.Estimate(), blob
			continue
		}
		if est := e.Estimate(); est != wantEst || !bytes.Equal(blob, wantBlob) {
			t.Fatalf("run %d: estimate %v (first run %v), snapshot equal=%v", run, est, wantEst, bytes.Equal(blob, wantBlob))
		}
	}
}
