package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

// TestOnePassStateDigest pins the full state of a `onepass` estimator
// (every level's counters and candidate set) after a fixed 2^16-update
// turnstile stream fed as full batches, ragged batches and single
// updates. The digest was recorded before the CountSketch row kernel,
// median and tracker index were rewritten (PR 16); those rewrites are
// bit-identical and any later one has to be too, or change the digest on
// purpose — as layout version 2 did (PR 21: 14 levels where there were
// 21, one row-hash family for the stack, bucket and sign from one
// polynomial value), under which it was re-recorded, once, and layout
// version 3 (PR 27: heavy.dims' rows from the measured frontier, 5 rows of
// 4096 buckets a level where there were 7), once more, and layout version
// 4 (PR 29: the same counters as zigzag varints with zero runs), once
// more; CHANGES.md has the values before and after each.
func TestOnePassStateDigest(t *testing.T) {
	const want = "8561fdef86654fce418865eec41c2f5177b8637f8c40b1c511d7f40222715abb"
	rng := util.NewSplitMix64(0x16d1635)
	ups := make([]stream.Update, 1<<16)
	for i := range ups {
		it := rng.Uint64n(1 << 15)
		d := int64(rng.Uint64n(9)) - 4
		if rng.Uint64n(8) == 0 {
			it = rng.Uint64n(32)
			d = int64(rng.Uint64n(2001)) - 1000
		}
		ups[i] = stream.Update{Item: it, Delta: d}
	}
	// The options of the repo benchmark (bench/workloads.go): 5 rows of
	// 4096 buckets per level.
	e := NewOnePass(gfunc.F2Func(), Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7})
	half := len(ups) / 2
	for i := 0; i < half; i += 4096 {
		e.UpdateBatch(ups[i : i+4096])
	}
	i := half
	for n := 1; i+n <= len(ups)-1024; n = n%257 + 1 {
		e.UpdateBatch(ups[i : i+n])
		i += n
	}
	for _, u := range ups[i:] {
		e.Update(u.Item, u.Delta)
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
