package recursive

import (
	"testing"

	"repro/internal/heavy"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/xhash"
)

// updateLevel is a level sketcher that records the updates it is fed. It
// has no Apply, so the cascade hands it a collapsed batch entry by entry.
type updateLevel struct {
	items []uint64
	ds    []int64
}

func (l *updateLevel) Update(item uint64, delta int64) {
	l.items, l.ds = append(l.items, item), append(l.ds, delta)
}
func (l *updateLevel) Cover() heavy.Cover { return nil }
func (l *updateLevel) SpaceBytes() int    { return 0 }

// applyLevel records the collapsed batches it is handed whole.
type applyLevel struct {
	updateLevel
	applies int
}

func (l *applyLevel) Apply(b *sketch.Batch) {
	l.applies++
	b.Each(l.Update)
}

// TestCascadeMatchesMember checks what every level of the stack receives
// from one UpdateBatch against the definition of the nested sub-universes:
// level k gets exactly the batch's distinct items i with member(i, k), in
// first-seen order, with their net deltas — handed over in one Apply, or
// update by update to a level that has none — and levels past the first
// empty one get nothing. Batches of 0 to 9 items, alone and on top of 64
// and 1000, all-distinct and duplicate-heavy, with items at and above
// 2^61-1 (hashed by their value mod p, so i and i+p travel together), and
// few enough items to die out well before the last level.
func TestCascadeMatchesMember(t *testing.T) {
	const p = xhash.MersennePrime61
	rng := util.NewSplitMix64(19)
	var batches [][]stream.Update
	for n := 0; n <= 9; n++ {
		for _, base := range []int{0, 64, 1000} {
			distinct := make([]stream.Update, base+n)
			dups := make([]stream.Update, 0, 3*(base+n))
			for i := range distinct {
				distinct[i] = stream.Update{Item: rng.Next(), Delta: int64(rng.Uint64n(9)) - 4}
				if i%7 == 0 {
					distinct[i].Item = []uint64{0, 1, p - 1, p, p + 1, 1 << 61, 1 << 63, 1<<64 - 1}[i/7%8] + uint64(i/56)
				}
			}
			for len(dups) < cap(dups) {
				u := stream.Update{Item: rng.Uint64n(uint64(base/4+n+1)) * (p / 3), Delta: int64(rng.Uint64n(5)) - 2}
				switch rng.Uint64n(3) {
				case 0: // a run
					dups = append(dups, u, u, u)
				case 1: // a pair that cancels
					dups = append(dups, u, stream.Update{Item: u.Item, Delta: -u.Delta})
				default:
					dups = append(dups, u)
				}
			}
			batches = append(batches, distinct, dups[:cap(dups)])
		}
	}
	for _, fallback := range []bool{false, true} {
		var applied []*applyLevel
		var updated []*updateLevel
		sk := New(Config{N: 1 << 20, MakeSketcher: func(int) heavy.Sketcher {
			if fallback {
				updated = append(updated, &updateLevel{})
				return updated[len(updated)-1]
			}
			applied = append(applied, &applyLevel{})
			return applied[len(applied)-1]
		}}, util.NewSplitMix64(5))
		if len(sk.levels) != 21 {
			t.Fatalf("%d levels, want 21", len(sk.levels))
		}
		deepest := 0
		for bi, batch := range batches {
			sk.UpdateBatch(batch)
			net := make(map[uint64]int64)
			var order []uint64
			for _, u := range batch {
				if _, seen := net[u.Item]; !seen {
					order = append(order, u.Item)
				}
				net[u.Item] += u.Delta
			}
			for k := range sk.levels {
				var got *updateLevel
				if fallback {
					got = updated[k]
				} else {
					got = &applied[k].updateLevel
				}
				var want []uint64
				for _, it := range order {
					if sk.member(it, k) {
						want = append(want, it)
					}
				}
				if len(got.items) != len(want) {
					t.Fatalf("fallback %v batch %d level %d: %d items, want %d", fallback, bi, k, len(got.items), len(want))
				}
				for i, it := range want {
					if got.items[i] != it || got.ds[i] != net[it] {
						t.Fatalf("fallback %v batch %d level %d: entry %d = (%d, %d), want (%d, %d)",
							fallback, bi, k, i, got.items[i], got.ds[i], it, net[it])
					}
				}
				if !fallback {
					// One Apply for level 0 and for every level some item
					// reaches; a sub-universe the batch misses ends the cascade.
					calls := 0
					if len(batch) > 0 && (k == 0 || len(want) > 0) {
						calls = 1
					}
					if applied[k].applies != calls {
						t.Fatalf("batch %d level %d: %d Apply calls, want %d", bi, k, applied[k].applies, calls)
					}
					applied[k].applies = 0
				}
				if len(want) > 0 && k > deepest {
					deepest = k
				}
				got.items, got.ds = got.items[:0], got.ds[:0]
			}
		}
		if deepest < 8 || deepest == len(sk.levels)-1 {
			t.Fatalf("deepest level reached is %d: the batches should get deep and still die out early", deepest)
		}
	}
}
