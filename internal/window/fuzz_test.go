package window

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/sketch/sketchtest"
)

// fuzzWindow builds the fixed receiver the fuzz corpus targets: a
// window of small one-level panes advanced through a fixed tick
// sequence. Keep in sync with testdata's seed-v6-panes, this window's
// own snapshot; seed-v6-valid, its snapshot in the exponential-histogram
// format, and the CountSketch-bucket payloads of earlier layouts stay in
// the corpus as refused inputs.
func fuzzWindow() *Window {
	w, err := New(gfunc.F2Func(), core.Options{N: 1 << 6, M: 1 << 6, Eps: 0.5, Lambda: 1.0 / 4, Seed: 3}, Config{W: 6, K: 2})
	if err != nil {
		panic(err)
	}
	for tick := uint64(0); tick <= 9; tick++ {
		w.Advance(tick)
		w.Update(tick%5, int64(tick)+1)
	}
	return w
}

// FuzzWindowUnmarshal asserts UnmarshalBinary never panics — truncated,
// corrupted, wrong-magic, wrong-clock, and wrong-format payloads must
// all return errors (or succeed harmlessly), never crash the decoder —
// and that a payload it refuses leaves the window as it was.
func FuzzWindowUnmarshal(f *testing.F) {
	src := fuzzWindow()
	valid, err := src.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, 3, 13, 14, 22, 30, len(valid) / 2, len(valid) - 1} {
		if cut >= 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[0] ^= 0xff
	f.Add(corrupt)
	deepCorrupt := append([]byte(nil), valid...)
	deepCorrupt[len(deepCorrupt)/2] ^= 0x55
	f.Add(deepCorrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWindow()
		sketchtest.RefusedIsNoOp(t, w, w.UnmarshalBinary, data)
	})
}
