package util_test

import (
	"testing"

	"repro/internal/stream"
	"repro/internal/util"
)

func TestCutCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1 << 16} {
		for _, w := range []int{1, 2, 3, 4, 7, 16} {
			prev := 0
			for i := 0; i < w; i++ {
				lo, hi := util.Cut(n, w, i)
				if lo != prev {
					t.Fatalf("n=%d w=%d chunk %d: lo=%d, want %d", n, w, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d w=%d chunk %d: hi=%d < lo=%d", n, w, i, hi, lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d w=%d: chunks end at %d, want %d", n, w, prev, n)
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := util.Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := util.Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := util.Workers(-5); got < 1 {
		t.Errorf("Workers(-5) = %d, want >= 1", got)
	}
}

func testUpdates(seed uint64, n int) []stream.Update {
	rng := util.NewSplitMix64(seed)
	out := make([]stream.Update, n)
	for i := range out {
		out[i] = stream.Update{Item: rng.Uint64n(512), Delta: rng.Int63n(9) - 4}
	}
	return out
}

func TestParallelChunksPartition(t *testing.T) {
	updates := testUpdates(7, 999)
	seen := make([]int, 8)
	var total int
	util.ParallelChunks(updates, 8, func(i int, chunk []stream.Update) {
		seen[i] = len(chunk)
	})
	for _, n := range seen {
		if n == 0 {
			t.Error("empty chunk handed to a worker")
		}
		total += n
	}
	if total != len(updates) {
		t.Errorf("chunks cover %d updates, want %d", total, len(updates))
	}
}
