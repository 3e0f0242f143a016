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

// The contract of ProcessParallel, the sharded kind's Process: for every
// worker count and every stream length — empty, shorter than the worker
// count, under the 2·BatchSize serial threshold, not a multiple of
// BatchSize — the counters equal a serial UpdateBatch replay's bit for
// bit, even on streams whose distinct items overflow the trackers, and the
// whole state is a constant of (stream, workers).

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

func TestProcessParallelCountersMatchSerial(t *testing.T) {
	g := gfunc.F2Func()
	bs := stream.BatchSize
	for _, length := range []int{0, 1, 5, 2*bs - 1, 2 * bs, 2*bs + 1, 5*bs + 7, 7 * bs} {
		s := turnstileStream(uint64(length), parallelOpts.N, length)
		serial := NewOnePass(g, parallelOpts)
		stream.Batches(s.Updates(), serial.UpdateBatch)
		want := countersOf(serial)
		if len(want) < 5 {
			t.Fatalf("found %d CountSketches in a stack, want one a level", len(want))
		}
		for _, workers := range []int{1, 2, 3, 4, 7} {
			e := NewOnePass(g, parallelOpts)
			if err := e.ProcessParallel(s, workers); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(countersOf(e), want) {
				t.Errorf("len=%d workers=%d: counters differ from a serial UpdateBatch replay", length, workers)
			}
		}
	}
}

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
