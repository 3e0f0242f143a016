package recursive

import (
	"testing"

	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/sketch/sketchtest"
	"repro/internal/util"
)

func fuzzRecursive() *Sketch {
	g := gfunc.F2Func()
	rng := util.NewSplitMix64(3)
	return New(Config{
		N:      64,
		Levels: 2,
		MakeSketcher: func(level int) heavy.Sketcher {
			return heavy.NewOnePass(heavy.OnePassConfig{
				G: g, Lambda: 0.25, Eps: 0.5, Delta: 0.3, H: 2,
			}, rng.Fork())
		},
	}, rng.Fork())
}

func fuzzRecursiveTwoPass() *TwoPass {
	g := gfunc.F2Func()
	rng := util.NewSplitMix64(4)
	return NewTwoPass(TwoPassConfig{
		N:      64,
		Levels: 2,
		MakeSketcher: func(level int) *heavy.TwoPass {
			return heavy.NewTwoPass(heavy.TwoPassConfig{
				G: g, Lambda: 0.25, Delta: 0.3, H: 2,
			}, rng.Fork())
		},
	}, rng.Fork())
}

func addSeeds(f *testing.F, valid []byte) {
	f.Add(valid)
	for _, cut := range []int{0, 3, 13, 14, 18, 40, len(valid) - 1} {
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

func FuzzRecursiveUnmarshal(f *testing.F) {
	src := fuzzRecursive()
	src.Update(5, 2)
	valid, err := src.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		sk := fuzzRecursive()
		sketchtest.RefusedIsNoOp(t, sk, sk.UnmarshalBinary, data)
	})
}

func FuzzRecursiveTwoPassUnmarshal(f *testing.F) {
	src := fuzzRecursiveTwoPass()
	src.Pass1(5, 2)
	src.FinishPass1()
	src.Pass2(5, 2)
	valid, err := src.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, valid)
	// A snapshot taken mid pass 1 holds no candidate set yet.
	mid := fuzzRecursiveTwoPass()
	mid.Pass1(5, 2)
	pass1, err := mid.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pass1)
	f.Fuzz(func(t *testing.T, data []byte) {
		sk := fuzzRecursiveTwoPass()
		sketchtest.RefusedIsNoOp(t, sk, sk.UnmarshalBinary, data)
	})
}
