package window

import (
	"testing"

	"repro/internal/sketch"
	"repro/internal/sketch/sketchtest"
	"repro/internal/util"
)

// fuzzWindow builds the fixed receiver the fuzz corpus targets: a
// CountSketch-bucket window advanced through a fixed tick sequence.
// Keep in sync with the valid-payload seeds below.
func fuzzWindow() *Window[*sketch.CountSketch] {
	w, err := New(Config{W: 6, K: 2}, func() *sketch.CountSketch {
		return sketch.NewCountSketch(2, 16, util.NewSplitMix64(3))
	})
	if err != nil {
		panic(err)
	}
	for tick := uint64(0); tick <= 9; tick++ {
		if err := w.Update(tick%5, int64(tick)+1, tick); err != nil {
			panic(err)
		}
	}
	return w
}

// FuzzWindowUnmarshal asserts UnmarshalBinary never panics — truncated,
// corrupted, wrong-magic, wrong-clock, and wrong-boundary payloads must
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
