package backend_test

// The sharded kind is one resident onepass stack whose Process ingests
// Spec.Workers contiguous chunks in parallel and merges them once
// (core.OnePassEstimator.ProcessParallel). Its counters, snapshot bytes
// and estimate at every worker count, door and merge are TestOracle's
// (internal/daemon) to hold to the serial replay. These tests hold what
// the oracle does not: the bytes resident, reads that build and change
// nothing, the worker cap and the batch path's allocations, beside the
// distributed wire merge.

import (
	"runtime"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/workload"
)

// shardedTestCfg's 200 items fit every level's tracker, so the candidate
// sets a merge admits are serial's and snapshots agree byte for byte.
var shardedTestCfg = workload.Config{N: 1 << 12, Items: 200, Length: 3 * stream.BatchSize, Seed: 5}

func shardedTestSpec(workers int) backend.Spec {
	return backend.Spec{
		Kind: backend.KindSharded, G: "x^2", Workers: workers,
		Options: core.Options{N: shardedTestCfg.N, M: 1 << 10, Eps: 0.25, Seed: 21, Lambda: 1.0 / 16},
	}
}

func mustOpen(t *testing.T, spec backend.Spec) backend.Estimator {
	t.Helper()
	e, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func process(t *testing.T, e backend.Estimator, s *stream.Stream) {
	t.Helper()
	if err := backend.Process(e, s); err != nil {
		t.Fatal(err)
	}
}

// serialReference ingests s through the onepass kind of the sharded test
// Spec and returns its estimate.
func serialReference(t *testing.T, s *stream.Stream) float64 {
	t.Helper()
	sp := shardedTestSpec(0)
	sp.Kind, sp.Workers = backend.KindOnePass, 0
	e := mustOpen(t, sp)
	process(t, e, s)
	return e.Estimate()
}

// TestShardedHoldsOneStack: the sharded kind keeps one stack resident, so
// its SpaceBytes is the onepass kind's, and Estimate and MarshalBinary
// read that stack in place: each allocates what the onepass kind's does,
// nowhere near a second stack's SpaceBytes.
func TestShardedHoldsOneStack(t *testing.T) {
	s := workload.Zipf{Alpha: 1.1}.Generate(shardedTestCfg)
	sp := shardedTestSpec(4)
	sharded := mustOpen(t, sp)
	process(t, sharded, s)
	sp.Kind, sp.Workers = backend.KindOnePass, 0
	onepass := mustOpen(t, sp)
	process(t, onepass, s)
	if a, b := sharded.SpaceBytes(), onepass.SpaceBytes(); a != b {
		t.Fatalf("sharded SpaceBytes %d, onepass %d", a, b)
	}
	stack := uint64(onepass.SpaceBytes())
	for name, read := range map[string]func(backend.Estimator){
		"Estimate":      func(e backend.Estimator) { e.Estimate() },
		"MarshalBinary": func(e backend.Estimator) { _, _ = e.MarshalBinary() },
	} {
		got, want := allocBytes(func() { read(sharded) }), allocBytes(func() { read(onepass) })
		if got > want+stack/2 {
			t.Errorf("%s allocates %d B on the sharded kind, %d B on onepass: a second stack is %d B", name, got, want, stack)
		}
	}
}

// allocBytes reports the bytes f allocates, averaged over 10 calls.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 10
}

// TestShardedUnmarshalMerges: decoding a snapshot folds it INTO the
// receiver (merge semantics), so two sharded workers combine to the
// serial estimate over the union stream — the distributed contract.
func TestShardedUnmarshalMerges(t *testing.T) {
	s := workload.Uniform{}.Generate(shardedTestCfg)
	updates := s.Updates()
	half := len(updates) / 2
	a := mustOpen(t, shardedTestSpec(3))
	b := mustOpen(t, shardedTestSpec(3))
	stream.Batches(updates[:half], a.UpdateBatch)
	stream.Batches(updates[half:], b.UpdateBatch)
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	wantEst := serialReference(t, s)
	if got := a.Estimate(); got != wantEst {
		t.Fatalf("merged estimate %v != serial %v", got, wantEst)
	}
}

// TestShardedEstimateIsRepeatable: reads leave the state as it was, so
// calling Estimate twice, with a MarshalBinary between, gives one answer.
func TestShardedEstimateIsRepeatable(t *testing.T) {
	e := mustOpen(t, shardedTestSpec(4))
	process(t, e, workload.Zipf{Alpha: 1.1}.Generate(shardedTestCfg))
	first := e.Estimate()
	if _, err := e.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if again := e.Estimate(); again != first {
		t.Fatalf("second Estimate %v != first %v", again, first)
	}
}

// TestShardedConfigErrors: a worker count past the registry's cap is an
// error from Open, before Process could build a stack per chunk.
func TestShardedConfigErrors(t *testing.T) {
	if _, err := backend.Open(shardedTestSpec(100000000)); err == nil {
		t.Fatal("Open accepted 10^8 workers")
	}
}

// TestShardedUpdateBatchSteadyStateAllocFree is the allocation gate of the
// kind's synchronous path at the repo benchmark's dimensions (bench/
// workloads.go: 14 levels of 5 x 4096 counters, two workers, batches of
// 4096): once the stack's collapsed batch has grown and its trackers
// filled, a batch allocates nothing.
func TestShardedUpdateBatchSteadyStateAllocFree(t *testing.T) {
	e := mustOpen(t, backend.Spec{Kind: backend.KindSharded, G: "x^2", Workers: 2,
		Options: core.Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7}})
	rng := util.NewSplitMix64(19)
	batches := make([][]stream.Update, 4)
	for k := range batches {
		batches[k] = make([]stream.Update, 4096)
		for i := range batches[k] {
			batches[k][i] = stream.Update{Item: rng.Uint64n(1 << 19), Delta: int64(rng.Uint64n(9)) - 4}
		}
	}
	for i := 0; i < 8; i++ { // warm-up: grow the scratch and fill the trackers
		e.UpdateBatch(batches[i%len(batches)])
	}
	i := 0
	if allocs := testing.AllocsPerRun(20, func() {
		e.UpdateBatch(batches[i%len(batches)])
		i++
	}); allocs != 0 {
		t.Errorf("UpdateBatch allocated %.1f times per batch at steady state, want 0", allocs)
	}
}
