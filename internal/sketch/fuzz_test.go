package sketch

import (
	"testing"

	"repro/internal/sketch/sketchtest"
	"repro/internal/util"
)

// fuzzSketch builds the fixed receiver the fuzz corpus targets. Keep in
// sync with the valid-payload seeds below: same dimensions, same seed.
func fuzzSketch() *CountSketch {
	return NewCountSketchTopK(3, 64, 4, util.NewSplitMix64(1))
}

// FuzzCountSketchUnmarshal asserts UnmarshalBinary never panics —
// truncated, corrupted, and wrong-magic payloads must all return errors
// (or succeed harmlessly), never crash the decoder — and that a payload
// it refuses leaves the receiver as it was.
func FuzzCountSketchUnmarshal(f *testing.F) {
	src := fuzzSketch()
	src.Update(7, 3)
	src.Update(11, -2)
	valid, err := src.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, 3, 13, 14, 20, len(valid) - 1} {
		if cut >= 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[0] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		cs := fuzzSketch()
		sketchtest.RefusedIsNoOp(t, cs, cs.UnmarshalBinary, data)
	})
}
