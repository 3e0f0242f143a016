package recursive

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/sketch/sketchtest"
	"repro/internal/stream"
	"repro/internal/util"
)

// lightStream keeps the distinct-item count below the per-level
// candidate trackers' capacity so serial and merged estimates agree
// exactly.
func lightStream(seed uint64) *stream.Stream {
	return stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 90, 1.2)
}

func newWireSketch(seed uint64) *Sketch {
	g := gfunc.F2Func()
	h := gfunc.MeasureEnvelope(g, 1<<10).H()
	rng := util.NewSplitMix64(seed)
	return New(Config{N: 1 << 12, MakeSketcher: makeOnePassFactory(g, h, rng.Fork())}, rng.Fork())
}

func TestRecursiveUnmarshalRejectsWrongSeed(t *testing.T) {
	a := newWireSketch(5)
	b := newWireSketch(6)
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalBinary(data); err == nil {
		t.Error("expected fingerprint mismatch decoding onto a different seed")
	}
	for _, cut := range []int{0, 5, 13, 20} {
		if cut < len(data) {
			if err := a.UnmarshalBinary(data[:cut]); err == nil {
				t.Errorf("expected error on payload truncated to %d bytes", cut)
			}
		}
	}
}

func newWireTwoPass(seed uint64) *TwoPass {
	g := gfunc.X2Log()
	h := gfunc.MeasureEnvelope(g, 1<<10).H()
	rng := util.NewSplitMix64(seed)
	return NewTwoPass(TwoPassConfig{
		N: 1 << 12,
		MakeSketcher: func(level int) *heavy.TwoPass {
			return heavy.NewTwoPass(heavy.TwoPassConfig{
				G: g, Lambda: 0.05, Delta: 0.1, H: h,
			}, rng.Fork())
		},
	}, rng.Fork())
}

func TestRecursiveTwoPassWireProtocolEqualsSerial(t *testing.T) {
	s := lightStream(17)
	updates := s.Updates()
	n := len(updates)

	serial := newWireTwoPass(23)
	for _, u := range updates {
		serial.Pass1(u.Item, u.Delta)
	}
	serial.FinishPass1()
	for _, u := range updates {
		serial.Pass2(u.Item, u.Delta)
	}
	want := serial.Estimate()

	w1, w2, coord := newWireTwoPass(23), newWireTwoPass(23), newWireTwoPass(23)
	for _, u := range updates[:n/2] {
		w1.Pass1(u.Item, u.Delta)
	}
	for _, u := range updates[n/2:] {
		w2.Pass1(u.Item, u.Delta)
	}
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
	// The coordinator's snapshot carries its candidate sets: a worker,
	// holding none, adopts them (its own pass-1 counters are not read
	// again).
	snap, err := coord.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*TwoPass{w1, w2} {
		if err := w.UnmarshalBinary(snap); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range updates[:n/2] {
		w1.Pass2(u.Item, u.Delta)
	}
	for _, u := range updates[n/2:] {
		w2.Pass2(u.Item, u.Delta)
	}
	for _, w := range []*TwoPass{w1, w2} {
		data, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	}

	if got := coord.Estimate(); got != want {
		t.Errorf("wire two-pass estimate %.17g != serial %.17g", got, want)
	}
}

// TestRefusedUnmarshalChangesNothing: a well-framed snapshot whose deepest
// level carries one bad row is refused with no level merged — the receiver
// marshals byte-identically before and after — for both recursive
// sketches. Before layout version 4 levels 0 to L−1 were added before the
// last level's row was read.
func TestRefusedUnmarshalChangesNothing(t *testing.T) {
	type wireSketch interface {
		MarshalBinary() ([]byte, error)
		UnmarshalBinary([]byte) error
	}
	for name, mk := range map[string]func(fill *stream.Stream) wireSketch{
		"onepass": func(fill *stream.Stream) wireSketch {
			sk := newWireSketch(5)
			for _, u := range fill.Updates() {
				sk.Update(u.Item, u.Delta)
			}
			return sk
		},
		"twopass": func(fill *stream.Stream) wireSketch {
			sk := newWireTwoPass(5)
			for _, u := range fill.Updates() {
				sk.Pass1(u.Item, u.Delta)
			}
			return sk
		},
	} {
		src, dst := mk(lightStream(31)), mk(lightStream(32))
		snap, err := src.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		before, err := dst.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		err = dst.UnmarshalBinary(sketchtest.BreakLastRow(t, snap))
		if err == nil || !strings.Contains(err.Error(), "wire: row of") {
			t.Errorf("%s: a snapshot with a bad last row: %v, want the row refused", name, err)
		}
		after, err := dst.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: a refused snapshot changed the receiver", name)
		}
		if err := dst.UnmarshalBinary(snap); err != nil {
			t.Errorf("%s: the snapshot the bad one is cut from: %v", name, err)
		}
	}
}
