package heavy

import (
	"testing"

	"repro/internal/gfunc"
	"repro/internal/sketch/sketchtest"
	"repro/internal/util"
)

// Fuzz receivers are small fixed instances; the seeds below marshal the
// same configuration so the corpus exercises the deep decode paths.

func fuzzOnePass() *OnePass {
	return NewOnePass(OnePassConfig{
		G: gfunc.F2Func(), Lambda: 0.25, Eps: 0.5, Delta: 0.3, H: 2,
	}, util.NewSplitMix64(5))
}

func fuzzTwoPass() *TwoPass {
	return NewTwoPass(TwoPassConfig{
		G: gfunc.F2Func(), Lambda: 0.25, Delta: 0.3, H: 2,
	}, util.NewSplitMix64(6))
}

func addSeeds(f *testing.F, valid []byte) {
	f.Add(valid)
	for _, cut := range []int{0, 3, 13, 14, 30, len(valid) - 1} {
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

func FuzzOnePassUnmarshal(f *testing.F) {
	src := fuzzOnePass()
	src.Update(9, 4)
	valid, err := src.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		op := fuzzOnePass()
		sketchtest.RefusedIsNoOp(t, op, op.UnmarshalBinary, data)
	})
}

func FuzzTwoPassUnmarshal(f *testing.F) {
	src := fuzzTwoPass()
	src.Pass1(9, 4)
	src.FinishPass1()
	src.Pass2(9, 4)
	valid, err := src.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, valid)
	// A snapshot taken mid pass 1 holds no candidate set yet.
	mid := fuzzTwoPass()
	mid.Pass1(9, 4)
	pass1, err := mid.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pass1)
	f.Fuzz(func(t *testing.T, data []byte) {
		tp := fuzzTwoPass()
		sketchtest.RefusedIsNoOp(t, tp, tp.UnmarshalBinary, data)
	})
}
