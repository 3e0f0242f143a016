package heavy

import (
	"strings"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/sketch/sketchtest"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/wire"
)

func feedStream(s *stream.Stream, lo, hi int, fn func(item uint64, delta int64)) {
	for i, u := range s.Updates() {
		if i >= lo && i < hi {
			fn(u.Item, u.Delta)
		}
	}
}

// wireStream keeps the distinct-item count below the candidate
// trackers' capacity, the regime in which serial and merged covers agree
// exactly.
func wireStream(seed uint64) *stream.Stream {
	return stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 90, 1.2)
}

func newTwoPassAt(seed uint64) *TwoPass {
	g := gfunc.X2Log()
	h := gfunc.MeasureEnvelope(g, 1<<10).H()
	return NewTwoPass(TwoPassConfig{G: g, Lambda: 0.05, Delta: 0.1, H: h},
		util.NewSplitMix64(seed))
}

// TestTwoPassSnapshotRefusesForeignCandidates: the two-pass snapshot is
// how a candidate set travels between processes, and a receiver that
// holds one takes a payload's tabulations only against the identical set.
// Each payload below is the sender's snapshot with its candidate section
// edited, and each is refused with the receiver's bytes unchanged.
func TestTwoPassSnapshotRefusesForeignCandidates(t *testing.T) {
	s := wireStream(5)
	n := s.Len()
	run := func() *TwoPass {
		tp := newTwoPassAt(11)
		feedStream(s, 0, n, tp.Pass1)
		tp.FinishPass1()
		feedStream(s, 0, n, tp.Pass2)
		return tp
	}
	src := run()
	if len(src.cands) < 2 {
		t.Fatalf("%d candidates; the stream is too light for the test", len(src.cands))
	}
	// payload is src's snapshot with cands and counts in its candidate
	// section.
	payload := func(cands []uint64, counts []int64) []byte {
		var w wire.Writer
		w.Header(twoPassMagic, src.Fingerprint())
		blob, err := src.cs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		w.Blob(blob)
		w.IDs(cands)
		w.I64s(counts)
		return w.Bytes()
	}
	cands := append([]uint64(nil), src.cands...)
	counts := make([]int64, len(cands))
	for i, it := range cands {
		counts[i] = src.counts[it]
	}
	foreign := append([]uint64(nil), cands...)
	foreign[len(foreign)-1] = 1 << 40 // outside the stream's domain
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"a set of another size", "candidate set mismatch", payload(cands[1:], counts[1:])},
		{"a foreign id in a set of the same size", "not in local set", payload(foreign, counts)},
		{"tabulations and candidates of different counts", "tabulations for", payload(cands, counts[1:])},
	} {
		recv := run()
		var err error
		sketchtest.RefusedIsNoOp(t, recv, func(d []byte) error { err = recv.UnmarshalBinary(d); return err }, tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
	recv := run()
	if err := recv.UnmarshalBinary(payload(cands, counts)); err != nil {
		t.Errorf("the unedited candidate section was refused: %v", err)
	}
}
