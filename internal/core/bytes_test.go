package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestSnapshotBytesGate holds the row codec to its byte budget: a onepass
// estimator at the repo benchmark's options (bench/workloads.go), fed a
// seeded 2^18-update stream of each of the benchmark's two shapes, must
// marshal to at most 0.78x the bytes the same state took under layout
// version 5 (zigzag varints with zero runs), recorded here. A regression
// of the codec then fails go test, not only the benchmark.
func TestSnapshotBytesGate(t *testing.T) {
	opts := core.Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7}
	for _, tc := range []struct {
		name  string
		gen   workload.Generator
		items int
		v5    int // MarshalBinary bytes under layout version 5
	}{
		{"uniform", workload.Uniform{}, 1 << 19, 114656},
		{"zipf", workload.Zipf{Alpha: 1.1}, 1 << 16, 83583},
	} {
		st := tc.gen.Generate(workload.Config{N: opts.N, Items: tc.items, Length: 1 << 18, Seed: 1})
		e := core.NewOnePass(gfunc.F2Func(), opts)
		stream.Batches(st.Updates(), e.UpdateBatch)
		data, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d bytes, %.3fx version 5's %d", tc.name, len(data), float64(len(data))/float64(tc.v5), tc.v5)
		if limit := tc.v5 * 78 / 100; len(data) > limit {
			t.Errorf("%s: a snapshot of %d bytes, over 0.78x version 5's %d (%d)", tc.name, len(data), tc.v5, limit)
		}
	}
}

// TestIngestScratchBytes holds the ingest path to its retained scratch: a
// onepass estimator at the repo benchmark's options, warmed on a seeded
// 2^18-update stream in batches of 4096, keeps its stack's collapsed batch
// between batches, and that batch is sized by the batch (its items, net
// deltas, residues, selection, packed row hashes and probe table) plus
// one fixed re-score chunk, not by rows x batch.
func TestIngestScratchBytes(t *testing.T) {
	opts := core.Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7}
	for _, tc := range []struct {
		name  string
		gen   workload.Generator
		items int
		limit int
	}{
		{"uniform", workload.Uniform{}, 1 << 19, 260000},
		{"zipf", workload.Zipf{Alpha: 1.1}, 1 << 16, 150000},
	} {
		st := tc.gen.Generate(workload.Config{N: opts.N, Items: tc.items, Length: 1 << 18, Seed: 1})
		e := core.NewOnePass(gfunc.F2Func(), opts)
		stream.Batches(st.Updates(), e.UpdateBatch)
		got := core.ScratchBytes(e)
		t.Logf("%s: %d bytes of ingest scratch", tc.name, got)
		if got > tc.limit {
			t.Errorf("%s: the stack retains %d bytes of ingest scratch, over %d", tc.name, got, tc.limit)
		}
	}
}

// TestLongBatchKeepsNoScratch: a batch past sketch.KeepBatch updates is
// collapsed into a one-off sketch.Batch, so the stack keeps the scratch
// its 4096-update batches left, not the long batch's, and what it
// computes does not move: the snapshot digest is the one recorded when
// the long batch went through the kept Batch.
func TestLongBatchKeepsNoScratch(t *testing.T) {
	const want = "a4c7f88f27205e0b313028f0ad2a4aa4a2f7669759d8d53dab57446ebc5868b2"
	opts := core.Options{N: 1 << 16, M: 1 << 10, Eps: 0.25, Lambda: 1.0 / 16, Seed: 11}
	ups := workload.Zipf{Alpha: 1.1}.Generate(workload.Config{N: opts.N, Items: 1 << 12, Length: 3 << 14, Seed: 2}).Updates()
	e := core.NewOnePass(gfunc.F2Func(), opts)
	stream.Batches(ups[:1<<14], e.UpdateBatch)
	kept := core.ScratchBytes(e)
	e.UpdateBatch(ups[1<<14:]) // 32,768 updates in one batch
	if got := core.ScratchBytes(e); got != kept {
		t.Errorf("the stack keeps %d bytes of scratch after one long batch, %d before it", got, kept)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("state digest %s, want %s", got, want)
	}
}
