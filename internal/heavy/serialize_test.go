package heavy

import (
	"testing"

	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

func onePassPair(seed uint64) (*OnePass, *OnePass) {
	g := gfunc.F2Func()
	h := gfunc.MeasureEnvelope(g, 1<<10).H()
	cfg := OnePassConfig{G: g, Lambda: 0.05, Eps: 0.25, Delta: 0.1, H: h}
	return NewOnePass(cfg, util.NewSplitMix64(seed)), NewOnePass(cfg, util.NewSplitMix64(seed))
}

func feedStream(s *stream.Stream, lo, hi int, fn func(item uint64, delta int64)) {
	for i, u := range s.Updates() {
		if i >= lo && i < hi {
			fn(u.Item, u.Delta)
		}
	}
}

// wireStream keeps the distinct-item count below the candidate
// trackers' capacity, the regime in which serial and merged covers agree
// exactly (see internal/core/merge.go).
func wireStream(seed uint64) *stream.Stream {
	return stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 90, 1.2)
}

func TestOnePassWireMergeEqualsSerial(t *testing.T) {
	s := wireStream(3)
	n := s.Len()

	serial, _ := onePassPair(7)
	feedStream(s, 0, n, serial.Update)

	// Two shard "processes": each sketches half, ships bytes, and a fresh
	// coordinator folds both snapshots.
	shard1, shard2 := onePassPair(7)
	feedStream(s, 0, n/2, shard1.Update)
	feedStream(s, n/2, n, shard2.Update)
	coord, _ := onePassPair(7)
	for _, sh := range []*OnePass{shard1, shard2} {
		data, err := sh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	}

	want := serial.Cover()
	got := coord.Cover()
	if len(want) == 0 {
		t.Fatal("serial cover is empty; workload too light for the test")
	}
	for _, e := range want {
		if !got.Contains(e.Item) {
			t.Errorf("item %d in serial cover but not in wire-merged cover", e.Item)
		}
	}
	if w, g := want.WeightSum(), got.WeightSum(); w != g {
		t.Errorf("wire-merged weight sum %.17g != serial %.17g", g, w)
	}
}

func TestOnePassUnmarshalRejectsWrongSeed(t *testing.T) {
	a, _ := onePassPair(1)
	b := func() *OnePass {
		g := gfunc.F2Func()
		h := gfunc.MeasureEnvelope(g, 1<<10).H()
		return NewOnePass(OnePassConfig{G: g, Lambda: 0.05, Eps: 0.25, Delta: 0.1, H: h},
			util.NewSplitMix64(99))
	}()
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalBinary(data); err == nil {
		t.Error("expected fingerprint mismatch decoding onto a different seed")
	}
	if err := a.UnmarshalBinary(data[:10]); err == nil {
		t.Error("expected error on truncated payload")
	}
}

func newTwoPassAt(seed uint64) *TwoPass {
	g := gfunc.X2Log()
	h := gfunc.MeasureEnvelope(g, 1<<10).H()
	return NewTwoPass(TwoPassConfig{G: g, Lambda: 0.05, Delta: 0.1, H: h},
		util.NewSplitMix64(seed))
}

func TestTwoPassWireProtocolEqualsSerial(t *testing.T) {
	s := wireStream(5)
	n := s.Len()

	serial := newTwoPassAt(11)
	feedStream(s, 0, n, serial.Pass1)
	serial.FinishPass1()
	feedStream(s, 0, n, serial.Pass2)
	want := serial.Cover()

	// Distributed: workers sketch pass-1 shards, the coordinator merges
	// snapshots, extracts candidates, ships them back; workers tabulate
	// pass-2 shards and ship the tabulations.
	w1, w2 := newTwoPassAt(11), newTwoPassAt(11)
	feedStream(s, 0, n/2, w1.Pass1)
	feedStream(s, n/2, n, w2.Pass1)
	coord := newTwoPassAt(11)
	for _, w := range []*TwoPass{w1, w2} {
		data, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	}
	coord.FinishPass1()
	cands, err := coord.MarshalCandidates()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*TwoPass{w1, w2} {
		if err := w.UnmarshalCandidates(cands); err != nil {
			t.Fatal(err)
		}
	}
	feedStream(s, 0, n/2, w1.Pass2)
	feedStream(s, n/2, n, w2.Pass2)
	for _, w := range []*TwoPass{w1, w2} {
		data, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	}
	got := coord.Cover()

	if len(want) == 0 {
		t.Fatal("serial cover is empty; workload too light for the test")
	}
	if len(got) != len(want) {
		t.Fatalf("wire cover has %d entries, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cover[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
