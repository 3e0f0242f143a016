package backend

import (
	"encoding"
	"strings"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/recursive"
	"repro/internal/sketch/sketchtest"
	"repro/internal/util"
)

// serial is what every serializable sketch is: a snapshot out, a
// merge-semantics decode in.
type serial interface {
	encoding.BinaryMarshaler
	UnmarshalBinary([]byte) error
}

// TestTrailingByteIsRefused: for every registered kind and every level
// type a kind nests, a whole snapshot with one byte appended is refused,
// naming the trailing byte, and leaves a receiver holding state of its
// own as it was.
func TestTrailingByteIsRefused(t *testing.T) {
	type subject struct {
		open func() serial
		feed func(serial, uint64)
	}
	subjects := map[string]subject{}
	for _, name := range Kinds() {
		spec := specFor(Kind(name), 11)
		subjects["kind "+name] = subject{
			open: func() serial {
				est, err := Open(spec)
				if err != nil {
					t.Fatal(err)
				}
				return est
			},
			feed: func(s serial, seed uint64) {
				est := s.(Estimator)
				ingest(t, est, testStream(seed))
				if w, ok := est.(Windowed); ok {
					w.Advance(100) // sender and receiver meet at one tick
				}
			},
		}
	}
	g := gfunc.F2Func()
	onePass := func(rng *util.SplitMix64) *heavy.OnePass {
		return heavy.NewOnePass(heavy.OnePassConfig{G: g, Lambda: 0.25, Eps: 0.5, Delta: 0.3, H: 2}, rng)
	}
	twoPass := func(rng *util.SplitMix64) *heavy.TwoPass {
		return heavy.NewTwoPass(heavy.TwoPassConfig{G: g, Lambda: 0.25, Delta: 0.3, H: 2}, rng)
	}
	updates := func(seed uint64, fn func(item uint64, delta int64)) {
		for _, u := range testStream(seed).Updates() {
			fn(u.Item, u.Delta)
		}
	}
	subjects["heavy.OnePass"] = subject{
		open: func() serial { return onePass(util.NewSplitMix64(5)) },
		feed: func(s serial, seed uint64) { updates(seed, s.(*heavy.OnePass).Update) },
	}
	subjects["heavy.TwoPass"] = subject{
		open: func() serial { return twoPass(util.NewSplitMix64(6)) },
		feed: func(s serial, seed uint64) {
			tp := s.(*heavy.TwoPass)
			updates(seed, tp.Pass1)
			tp.FinishPass1()
			updates(seed, tp.Pass2)
		},
	}
	subjects["recursive.Sketch"] = subject{
		open: func() serial {
			rng := util.NewSplitMix64(3)
			return recursive.New(recursive.Config{N: 1 << 12, Levels: 3,
				MakeSketcher: func(int) heavy.Sketcher { return onePass(rng.Fork()) }}, rng.Fork())
		},
		feed: func(s serial, seed uint64) { updates(seed, s.(*recursive.Sketch).Update) },
	}
	subjects["recursive.TwoPass"] = subject{
		open: func() serial {
			rng := util.NewSplitMix64(4)
			return recursive.NewTwoPass(recursive.TwoPassConfig{N: 1 << 12, Levels: 3,
				MakeSketcher: func(int) *heavy.TwoPass { return twoPass(rng.Fork()) }}, rng.Fork())
		},
		feed: func(s serial, seed uint64) {
			tp := s.(*recursive.TwoPass)
			updates(seed, tp.Pass1)
			tp.FinishPass1()
			updates(seed, tp.Pass2)
		},
	}
	for name, sub := range subjects {
		t.Run(name, func(t *testing.T) {
			src, dst := sub.open(), sub.open()
			sub.feed(src, 3)
			sub.feed(dst, 5)
			payload, err := src.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			payload = append(payload, 0)
			if err := dst.UnmarshalBinary(payload); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
				t.Errorf("a snapshot with a trailing byte: %v, want a trailing-bytes refusal", err)
			}
			sketchtest.RefusedIsNoOp(t, dst, dst.UnmarshalBinary, payload)
		})
	}
}
