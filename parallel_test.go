package universal

// Race and property coverage for concurrent ingestion and merging. Run
// with -race: the sharded-kind tests drive the real chunk goroutines and
// merge, so any unsynchronized state shows up here.

import (
	"testing"

	"repro/internal/stream"
	"repro/internal/util"
)

// parallelStream keeps the distinct-item count below the candidate
// trackers' capacity, the regime in which serial and merged estimates
// are guaranteed to agree exactly (see internal/core/merge.go).
func parallelStream(seed uint64) *Stream {
	return stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 90, 1.1)
}

// openSharded opens the sharded kind for g = x² through the public door.
func openSharded(t *testing.T, opts Options, workers int) Estimator {
	t.Helper()
	e, err := Open(Spec{Kind: KindSharded, G: F2().Name(), Options: opts, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPublicShardedKindMatchesSerialExactly(t *testing.T) {
	g := F2()
	for _, workers := range []int{1, 2, 4, 8} {
		s := parallelStream(7)
		opts := Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 42, Lambda: 1.0 / 16}

		serial := mustOpen(t, Spec{Kind: KindOnePass, G: g.Name(), Options: opts}, s)

		sharded := openSharded(t, opts, workers)
		if err := Process(sharded, s); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if a, b := serial.Estimate(), sharded.Estimate(); a != b {
			t.Errorf("workers=%d: sharded %.17g != serial %.17g", workers, b, a)
		}
	}
}

func TestPublicTwoPassRunParallelMatchesSerialExactly(t *testing.T) {
	g := X2Log()
	s := parallelStream(9)
	opts := Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 4, Lambda: 1.0 / 16}

	want := mustOpen(t, Spec{Kind: KindTwoPass, G: g.Name(), Options: opts, Workers: 1}, s).Estimate()
	got := mustOpen(t, Spec{Kind: KindTwoPass, G: g.Name(), Options: opts, Workers: 4}, s).Estimate()
	if got != want {
		t.Errorf("parallel two-pass %.17g != serial %.17g", got, want)
	}
}

func TestShardedProcessRaceStress(t *testing.T) {
	// A larger stream across 8 shards; meaningful only under -race,
	// where it sweeps the whole route/hand-off/merge machinery for data races.
	rng := util.NewSplitMix64(12)
	s := NewStream(1 << 16)
	n := 50000
	if testing.Short() {
		n = 5000
	}
	for i := 0; i < n; i++ {
		s.Add(rng.Uint64n(1<<16), rng.Int63n(7)-3)
	}
	opts := Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 3, Lambda: 1.0 / 16}
	sharded := openSharded(t, opts, 8)
	if err := Process(sharded, s); err != nil {
		t.Fatal(err)
	}
	if est := sharded.Estimate(); est < 0 {
		t.Errorf("negative estimate %g", est)
	}
}

func TestBatchAndSingleUpdatePathsAgreeThroughPublicAPI(t *testing.T) {
	g := F2()
	s := parallelStream(55)
	opts := Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 6, Lambda: 1.0 / 16}

	spec := Spec{Kind: KindOnePass, G: g.Name(), Options: opts}
	one := mustOpen(t, spec, NewStream(s.N()))
	s.Each(func(u Update) { one.Update(u.Item, u.Delta) })

	batched := mustOpen(t, spec, NewStream(s.N()))
	batched.UpdateBatch(s.Updates())

	if a, b := one.Estimate(), batched.Estimate(); a != b {
		t.Errorf("batched %.17g != per-update %.17g", b, a)
	}
}
