package hotpath_test

// The bit-identity acceptance tests for the sharded hot path: for EVERY
// workload generator in the catalog, the channel-fed concurrent ingest
// (backend.Process on the sharded kind), the synchronous routed path
// (UpdateBatch), and several shard counts must reproduce the serial
// one-pass estimate and marshaled snapshot bit for bit. They live in an
// external test package so they can open estimators through the backend
// registry — the same construction path every frontend uses — without
// creating an import cycle (backend imports hotpath).

import (
	"bytes"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/hotpath"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/workload"
)

var shardedTestCfg = workload.Config{N: 1 << 12, Items: 200, Length: 8000, Seed: 5}

func shardedTestSpec(workers int) backend.Spec {
	return backend.Spec{
		Kind: backend.KindSharded, G: "x^2", Workers: workers,
		Options: core.Options{N: shardedTestCfg.N, M: 1 << 10, Eps: 0.25, Seed: 21, Lambda: 1.0 / 16},
	}
}

// serialReference ingests the generator's stream through the serial
// onepass kind and returns its estimate and snapshot.
func serialReference(t *testing.T, gen workload.Generator) (float64, []byte) {
	t.Helper()
	sp := shardedTestSpec(0)
	sp.Kind = backend.KindOnePass
	sp.Workers = 0
	e, err := backend.Open(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Process(e, gen.Generate(shardedTestCfg)); err != nil {
		t.Fatal(err)
	}
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return e.Estimate(), blob
}

// TestShardedMatchesSerialEveryWorkload is the tentpole property test:
// estimates AND marshaled snapshots bit-identical to serial for every
// generator in the catalog, across shard counts, through the concurrent
// channel path. Run it under -race to also exercise the hand-off.
func TestShardedMatchesSerialEveryWorkload(t *testing.T) {
	for _, gen := range workload.Generators() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			wantEst, wantBlob := serialReference(t, gen)
			for _, workers := range []int{1, 2, 4, 8} {
				e, err := backend.Open(shardedTestSpec(workers))
				if err != nil {
					t.Fatal(err)
				}
				if err := backend.Process(e, gen.Generate(shardedTestCfg)); err != nil {
					t.Fatal(err)
				}
				if got := e.Estimate(); got != wantEst {
					t.Fatalf("workers=%d: estimate %v != serial %v", workers, got, wantEst)
				}
				blob, err := e.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, wantBlob) {
					t.Fatalf("workers=%d: marshaled snapshot differs from serial (%d vs %d bytes)",
						workers, len(blob), len(wantBlob))
				}
			}
		})
	}
}

// TestShardedSynchronousPathMatchesSerial covers the routed
// Update/UpdateBatch path (what the daemon's ingest handlers drive)
// rather than the concurrent path.
func TestShardedSynchronousPathMatchesSerial(t *testing.T) {
	gen := workload.Zipf{Alpha: 1.1}
	wantEst, wantBlob := serialReference(t, gen)
	e, err := backend.Open(shardedTestSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Generate(shardedTestCfg)
	// Half through UpdateBatch chunks, half through single Updates: both
	// entry points must land in the same shard state.
	updates := s.Updates()
	half := len(updates) / 2
	stream.Batches(updates[:half], e.UpdateBatch)
	for _, u := range updates[half:] {
		e.Update(u.Item, u.Delta)
	}
	if got := e.Estimate(); got != wantEst {
		t.Fatalf("estimate %v != serial %v", got, wantEst)
	}
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, wantBlob) {
		t.Fatal("marshaled snapshot differs from serial")
	}
}

// TestShardedUnmarshalMerges: decoding a snapshot folds it INTO the
// receiver (merge semantics), so two sharded workers combine to the
// serial estimate over the union stream — the distributed contract.
func TestShardedUnmarshalMerges(t *testing.T) {
	gen := workload.Uniform{}
	s := gen.Generate(shardedTestCfg)
	updates := s.Updates()
	half := len(updates) / 2

	sp := shardedTestSpec(3)
	a, err := backend.Open(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.Open(sp)
	if err != nil {
		t.Fatal(err)
	}
	stream.Batches(updates[:half], a.UpdateBatch)
	stream.Batches(updates[half:], b.UpdateBatch)
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}

	wantEst, _ := serialReference(t, gen)
	if got := a.Estimate(); got != wantEst {
		t.Fatalf("merged estimate %v != serial %v", got, wantEst)
	}
}

// TestShardedEstimateIsRepeatable: Estimate merges into a FRESH target
// every call, so calling it twice (or marshaling in between) cannot
// double-count the shards.
func TestShardedEstimateIsRepeatable(t *testing.T) {
	e, err := backend.Open(shardedTestSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Zipf{Alpha: 1.1}
	if err := backend.Process(e, gen.Generate(shardedTestCfg)); err != nil {
		t.Fatal(err)
	}
	first := e.Estimate()
	if _, err := e.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if again := e.Estimate(); again != first {
		t.Fatalf("second Estimate %v != first %v (merge mutated the shards)", again, first)
	}
}

// TestShardedBackendMergeMatchesSerial: two sharded estimators opened
// from one Spec each ingest half of a stream through Process;
// backend.Merge of one into the other, then Estimate and MarshalBinary,
// equal the serial run over the concatenation bit for bit.
func TestShardedBackendMergeMatchesSerial(t *testing.T) {
	gen := workload.Zipf{Alpha: 1.1}
	wantEst, wantBlob := serialReference(t, gen)

	whole := gen.Generate(shardedTestCfg)
	updates := whole.Updates()
	halves := [2]*stream.Stream{stream.New(whole.N()), stream.New(whole.N())}
	for i, u := range updates {
		halves[2*i/len(updates)].Add(u.Item, u.Delta)
	}

	var ests [2]backend.Estimator
	for i := range ests {
		e, err := backend.Open(shardedTestSpec(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Process(e, halves[i]); err != nil {
			t.Fatal(err)
		}
		ests[i] = e
	}
	if err := backend.Merge(ests[0], ests[1]); err != nil {
		t.Fatal(err)
	}
	if got := ests[0].Estimate(); got != wantEst {
		t.Fatalf("merged sharded estimate %v != serial %v", got, wantEst)
	}
	blob, err := ests[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, wantBlob) {
		t.Fatal("merged sharded snapshot differs from serial")
	}
}

// TestShardedProcessBoundaries walks the edges of Process that the
// fixed-size workload tests skip: the serial-fallback threshold
// (2*batchSize), a partial tail batch, more routers than full batches
// (8 shards on 2*batchSize updates never fill one), and shards that
// receive nothing (the stream has 5 distinct items). At every point
// Process must equal batch-by-batch UpdateBatch on the same kind and
// the serial onepass kind, on Estimate and MarshalBinary bit for bit.
func TestShardedProcessBoundaries(t *testing.T) {
	const bs = hotpath.BatchSize
	state := func(e backend.Estimator) (float64, []byte) {
		t.Helper()
		blob, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return e.Estimate(), blob
	}
	for _, length := range []int{0, 1, 2*bs - 1, 2 * bs, 2*bs + 1, 5*bs + 7} {
		rng := util.NewSplitMix64(uint64(length))
		s := stream.New(shardedTestCfg.N)
		for i := 0; i < length; i++ {
			s.Add(rng.Uint64n(5)*17, rng.Int63n(3)+1)
		}
		sp := shardedTestSpec(0)
		sp.Kind = backend.KindOnePass
		serial, err := backend.Open(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Process(serial, s); err != nil {
			t.Fatal(err)
		}
		wantEst, wantBlob := state(serial)

		for _, shards := range []int{1, 2, 3, 8} {
			processed, err := backend.Open(shardedTestSpec(shards))
			if err != nil {
				t.Fatal(err)
			}
			if err := backend.Process(processed, s); err != nil {
				t.Fatal(err)
			}
			batched, err := backend.Open(shardedTestSpec(shards))
			if err != nil {
				t.Fatal(err)
			}
			feed(batched, s.Updates(), bs)

			for path, e := range map[string]backend.Estimator{"Process": processed, "UpdateBatch": batched} {
				est, blob := state(e)
				if est != wantEst || !bytes.Equal(blob, wantBlob) {
					t.Fatalf("len=%d shards=%d: %s gives estimate %v (serial %v), snapshot equal=%v",
						length, shards, path, est, wantEst, bytes.Equal(blob, wantBlob))
				}
			}
		}
	}
}

// TestShardedConfigErrors: the one way to misconfigure the kind is a
// shard count past the registry's cap, and that is an error from Open
// (before any shard is built), not an out-of-memory crash.
func TestShardedConfigErrors(t *testing.T) {
	if _, err := backend.Open(shardedTestSpec(100000000)); err == nil {
		t.Fatal("Open accepted 10^8 shards")
	}
}

// TestShardedUpdateBatchSteadyStateAllocFree is the allocation gate of
// the routed synchronous path at the repo benchmark's dimensions (bench/
// workloads.go: two shards of 14 levels x 5 x 4096 counters, batches of
// 4096): once the route buffers and each shard's collapsed batch have
// grown, a batch allocates nothing.
func TestShardedUpdateBatchSteadyStateAllocFree(t *testing.T) {
	se := hotpath.New(gfunc.F2Func(), core.Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7}, 2)
	rng := util.NewSplitMix64(19)
	batches := make([][]stream.Update, 4)
	for k := range batches {
		batches[k] = make([]stream.Update, 4096)
		for i := range batches[k] {
			batches[k][i] = stream.Update{Item: rng.Uint64n(1 << 19), Delta: int64(rng.Uint64n(9)) - 4}
		}
	}
	for i := 0; i < 8; i++ { // warm-up: grow the scratch and fill the trackers
		se.UpdateBatch(batches[i%len(batches)])
	}
	i := 0
	if allocs := testing.AllocsPerRun(20, func() {
		se.UpdateBatch(batches[i%len(batches)])
		i++
	}); allocs != 0 {
		t.Errorf("UpdateBatch allocated %.1f times per batch at steady state, want 0", allocs)
	}
}
