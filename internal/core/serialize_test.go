package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/sketch/sketchtest"
	"repro/internal/stream"
)

// wireStream keeps the distinct-item count below the candidate
// trackers' capacity, the regime in which serial and merged estimates
// are guaranteed to agree exactly (see merge.go).
func wireStream(seed uint64) *stream.Stream {
	return stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 90, 1.1)
}

func wireOpts(seed uint64) Options {
	return Options{N: 1 << 12, M: 1 << 10, Eps: 0.25, Seed: seed, Lambda: 1.0 / 16}
}

// shardAndShip splits the stream in half, processes each half in an
// independent estimator (a stand-in for a worker process), and ships
// both snapshots into coord via the wire format.
func shardAndShip(t *testing.T, s *stream.Stream, mk func() interface {
	Update(uint64, int64)
	MarshalBinary() ([]byte, error)
}, coord interface{ UnmarshalBinary([]byte) error }) {
	t.Helper()
	updates := s.Updates()
	n := len(updates)
	for i, bounds := range [][2]int{{0, n / 2}, {n / 2, n}} {
		w := mk()
		for _, u := range updates[bounds[0]:bounds[1]] {
			w.Update(u.Item, u.Delta)
		}
		data, err := w.MarshalBinary()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if err := coord.UnmarshalBinary(data); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}

func TestOnePassEstimatorWireMergeEqualsSerial(t *testing.T) {
	g := gfunc.F2Func()
	s := wireStream(3)
	opts := wireOpts(42)

	serial := NewOnePass(g, opts)
	serial.Process(s)

	coord := NewOnePass(g, opts)
	shardAndShip(t, s, func() interface {
		Update(uint64, int64)
		MarshalBinary() ([]byte, error)
	} {
		return NewOnePass(g, opts)
	}, coord)

	if a, b := serial.Estimate(), coord.Estimate(); a != b {
		t.Errorf("wire-merged estimate %.17g != serial %.17g", b, a)
	}
}

func TestOnePassEstimatorUnmarshalRejectsMismatch(t *testing.T) {
	g := gfunc.F2Func()
	a := NewOnePass(g, wireOpts(42))
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Different seed.
	if err := NewOnePass(g, wireOpts(43)).UnmarshalBinary(data); err == nil {
		t.Error("expected fingerprint mismatch for different seed")
	}
	// Different function.
	if err := NewOnePass(gfunc.F1Func(), wireOpts(42)).UnmarshalBinary(data); err == nil {
		t.Error("expected fingerprint mismatch for different function")
	}
	// Truncation at every prefix must error, never panic.
	for cut := 0; cut < len(data); cut += 97 {
		if err := a.UnmarshalBinary(data[:cut]); err == nil {
			t.Errorf("expected error on payload truncated to %d bytes", cut)
		}
	}
}

func TestTwoPassEstimatorWireProtocolEqualsSerial(t *testing.T) {
	g := gfunc.X2Log()
	s := wireStream(9)
	opts := wireOpts(4)
	updates := s.Updates()
	n := len(updates)

	serial := NewTwoPass(g, opts)
	want := serial.Run(s)

	w1, w2, coord := NewTwoPass(g, opts), NewTwoPass(g, opts), NewTwoPass(g, opts)
	for _, u := range updates[:n/2] {
		w1.Pass1(u.Item, u.Delta)
	}
	for _, u := range updates[n/2:] {
		w2.Pass1(u.Item, u.Delta)
	}
	for _, w := range []*TwoPassEstimator{w1, w2} {
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
	for _, w := range []*TwoPassEstimator{w1, w2} {
		if err := w.UnmarshalCandidates(cands); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range updates[:n/2] {
		w1.Pass2(u.Item, u.Delta)
	}
	for _, u := range updates[n/2:] {
		w2.Pass2(u.Item, u.Delta)
	}
	for _, w := range []*TwoPassEstimator{w1, w2} {
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

func TestRoundTripAcrossConstructedPair(t *testing.T) {
	// Marshal from one instance, unmarshal into a freshly built twin, and
	// re-marshal: the twin's payload must equal the original, i.e. the
	// wire format is lossless on counter state.
	g := gfunc.F2Func()
	s := wireStream(15)
	opts := wireOpts(10)

	src := NewOnePass(g, opts)
	src.Process(s)
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewOnePass(g, opts)
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	again, err := dst.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("re-marshaled payload differs from the original round trip")
	}
}

// TestRefusedUnmarshalChangesNothing: a well-framed snapshot whose last
// counter row is bad — the deepest level of the stack it carries — is
// refused with nothing merged: the receiver marshals byte-identically
// before and after.
func TestRefusedUnmarshalChangesNothing(t *testing.T) {
	opts := wireOpts(8)
	src, dst := NewOnePass(gfunc.F2Func(), opts), NewOnePass(gfunc.F2Func(), opts)
	src.Process(wireStream(21))
	dst.Process(wireStream(22))
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
		t.Errorf("a snapshot with a bad last row: %v, want the row refused", err)
	}
	after, err := dst.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a refused snapshot changed the receiver")
	}
	if err := dst.UnmarshalBinary(snap); err != nil {
		t.Errorf("the snapshot the bad one is cut from: %v", err)
	}
}
