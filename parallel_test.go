package universal

// Race and property coverage for concurrent ingestion and merging. Run
// with -race: the sharded-kind tests drive the real routers and shard
// consumers, so any unsynchronized shard state shows up here.

import (
	"bytes"
	"testing"

	"repro/internal/heavy"
	"repro/internal/recursive"
	"repro/internal/sketch"
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

		serial := NewOnePassEstimator(g, opts)
		serial.Process(s)

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

	serial := NewTwoPassEstimator(g, opts)
	want := serial.Run(s)

	par := NewTwoPassEstimator(g, opts)
	got, err := par.RunParallel(s, 4)
	if err != nil {
		t.Fatal(err)
	}
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

// --- merge property tests: order-insensitivity and single-shard
// agreement at each layer of the stack -------------------------------------

// chunk3 splits a stream into three contiguous shards.
func chunk3(s *Stream) [3][]Update {
	u := s.Updates()
	a, b := len(u)/3, 2*len(u)/3
	return [3][]Update{u[:a], u[a:b], u[b:]}
}

func TestCountSketchMergeOrderInsensitive(t *testing.T) {
	s := parallelStream(21)
	chunks := chunk3(s)
	mk := func() *sketch.CountSketch {
		return sketch.NewCountSketch(7, 256, util.NewSplitMix64(5))
	}
	build := func(c []Update) *sketch.CountSketch {
		cs := mk()
		cs.UpdateBatch(c)
		return cs
	}

	single := mk()
	for _, c := range chunks {
		single.UpdateBatch(c)
	}
	want, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for _, order := range [][3]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}} {
		dst := build(chunks[order[0]])
		for _, i := range order[1:] {
			if err := dst.Merge(build(chunks[i])); err != nil {
				t.Fatal(err)
			}
		}
		got, err := dst.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("merge order %v: counters diverge from single-shard ingestion", order)
		}
	}
}

// coversEqual compares two covers entry-wise.
func coversEqual(a, b heavy.Cover) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHeavyOnePassMergeAgreesWithSingleShard(t *testing.T) {
	g := F2()
	s := parallelStream(33)
	chunks := chunk3(s)
	mk := func() *heavy.OnePass {
		return heavy.NewOnePass(heavy.OnePassConfig{
			G: g, Lambda: 1.0 / 16, Eps: 0.25, Delta: 0.2, H: 4,
		}, util.NewSplitMix64(17))
	}

	single := mk()
	for _, c := range chunks {
		single.UpdateBatch(c)
	}
	want := single.Cover()

	for _, order := range [][3]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		shards := [3]*heavy.OnePass{}
		for i, c := range chunks {
			shards[i] = mk()
			shards[i].UpdateBatch(c)
		}
		dst := shards[order[0]]
		for _, i := range order[1:] {
			if err := dst.Merge(shards[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := dst.Cover(); !coversEqual(want, got) {
			t.Errorf("merge order %v: cover diverges from single-shard ingestion\n got %v\nwant %v",
				order, got, want)
		}
	}
}

func TestRecursiveSketchMergeAgreesWithSingleShard(t *testing.T) {
	g := F2()
	s := parallelStream(44)
	chunks := chunk3(s)
	mk := func() *recursive.Sketch {
		rng := util.NewSplitMix64(23)
		hh := rng.Fork()
		return recursive.New(recursive.Config{
			N:      s.N(),
			Levels: 8,
			MakeSketcher: func(level int) heavy.Sketcher {
				return heavy.NewOnePass(heavy.OnePassConfig{
					G: g, Lambda: 1.0 / 16, Eps: 0.25, Delta: 0.2, H: 4,
				}, hh.Fork())
			},
		}, rng.Fork())
	}

	single := mk()
	for _, c := range chunks {
		single.UpdateBatch(c)
	}
	want := single.Estimate()

	for _, order := range [][3]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		shards := [3]*recursive.Sketch{}
		for i, c := range chunks {
			shards[i] = mk()
			shards[i].UpdateBatch(c)
		}
		dst := shards[order[0]]
		for _, i := range order[1:] {
			if err := dst.Merge(shards[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := dst.Estimate(); got != want {
			t.Errorf("merge order %v: estimate %.17g != single-shard %.17g", order, got, want)
		}
	}
}

func TestBatchAndSingleUpdatePathsAgreeThroughPublicAPI(t *testing.T) {
	g := F2()
	s := parallelStream(55)
	opts := Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 6, Lambda: 1.0 / 16}

	one := NewOnePassEstimator(g, opts)
	s.Each(func(u Update) { one.Update(u.Item, u.Delta) })

	batched := NewOnePassEstimator(g, opts)
	batched.UpdateBatch(s.Updates())

	if a, b := one.Estimate(), batched.Estimate(); a != b {
		t.Errorf("batched %.17g != per-update %.17g", b, a)
	}
}
