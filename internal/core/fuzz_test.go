package core

import (
	"testing"

	"repro/internal/gfunc"
	"repro/internal/sketch/sketchtest"
)

func fuzzOpts() Options {
	return Options{N: 64, M: 16, Eps: 0.5, Seed: 9, Lambda: 0.25, Levels: 2}
}

func addSeeds(f *testing.F, valid []byte) {
	f.Add(valid)
	for _, cut := range []int{0, 3, 13, 14, 18, 60, len(valid) - 1} {
		if cut >= 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[0] ^= 0xff
	f.Add(corrupt)
	corrupt2 := append([]byte(nil), valid...)
	corrupt2[len(corrupt2)/2] ^= 0x55
	f.Add(corrupt2)
}

func FuzzOnePassEstimatorUnmarshal(f *testing.F) {
	src := NewOnePass(gfunc.F2Func(), fuzzOpts())
	src.Update(5, 3)
	valid, err := src.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewOnePass(gfunc.F2Func(), fuzzOpts())
		sketchtest.RefusedIsNoOp(t, e, e.UnmarshalBinary, data)
	})
}

func FuzzTwoPassEstimatorUnmarshal(f *testing.F) {
	src := NewTwoPass(gfunc.F2Func(), fuzzOpts())
	src.Update(5, 3)
	src.FinishPass1()
	src.Update(5, 3)
	valid, err := src.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewTwoPass(gfunc.F2Func(), fuzzOpts())
		sketchtest.RefusedIsNoOp(t, e, e.UnmarshalBinary, data)
	})
}
