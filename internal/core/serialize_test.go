package core

import (
	"testing"

	"repro/internal/gfunc"
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
		w1.Update(u.Item, u.Delta)
	}
	for _, u := range updates[n/2:] {
		w2.Update(u.Item, u.Delta)
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
	// The coordinator's snapshot carries its candidate sets: a worker,
	// holding none, adopts them (its own pass-1 counters are not read
	// again) and tabulates pass 2 against them, without a FinishPass1 of
	// its own.
	snap, err := coord.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*TwoPassEstimator{w1, w2} {
		if err := w.UnmarshalBinary(snap); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range updates[:n/2] {
		w1.sk.Pass2(u.Item, u.Delta)
	}
	for _, u := range updates[n/2:] {
		w2.sk.Pass2(u.Item, u.Delta)
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
	// A fresh estimator restoring the coordinator's snapshot adopts its
	// candidates with their tabulations.
	data, err := coord.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewTwoPass(g, opts)
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got := restored.Estimate(); got != want {
		t.Errorf("restored two-pass estimate %.17g != serial %.17g", got, want)
	}
}
