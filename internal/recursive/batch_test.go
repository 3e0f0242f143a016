package recursive

import (
	"testing"

	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/xhash"
)

// TestCascadeMatchesMember checks what every level of a stack receives
// from one Cascade against the definition of the nested sub-universes:
// level k gets exactly the batch's distinct items i with member(i, k), in
// first-seen order, with their net deltas, in one feed call — and levels
// past the first empty one get nothing. Batches of 0 to 9 items, alone and
// on top of 64 and 1000, all-distinct and duplicate-heavy, with items at
// and above 2^61-1 (hashed by their value mod p, so i and i+p travel
// together), and few enough items to die out well before the last level.
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
	sk := &Sketch{sub: Subsamplers(20, util.NewSplitMix64(5))}
	type fed struct {
		items []uint64
		ds    []int64
		calls int
	}
	levels := make([]fed, len(sk.sub)+1)
	deepest := 0
	for bi, batch := range batches {
		Cascade(&sk.plan, batch, sk.sub, func(k int, b *sketch.Batch) {
			levels[k].calls++
			b.Each(func(item uint64, delta int64) {
				levels[k].items, levels[k].ds = append(levels[k].items, item), append(levels[k].ds, delta)
			})
		})
		net := make(map[uint64]int64)
		var order []uint64
		for _, u := range batch {
			if _, seen := net[u.Item]; !seen {
				order = append(order, u.Item)
			}
			net[u.Item] += u.Delta
		}
		for k := range levels {
			got := &levels[k]
			var want []uint64
			for _, it := range order {
				if sk.member(it, k) {
					want = append(want, it)
				}
			}
			if len(got.items) != len(want) {
				t.Fatalf("batch %d level %d: %d items, want %d", bi, k, len(got.items), len(want))
			}
			for i, it := range want {
				if got.items[i] != it || got.ds[i] != net[it] {
					t.Fatalf("batch %d level %d: entry %d = (%d, %d), want (%d, %d)",
						bi, k, i, got.items[i], got.ds[i], it, net[it])
				}
			}
			// One call for level 0 and for every level some item reaches;
			// a sub-universe the batch misses ends the cascade.
			calls := 0
			if len(batch) > 0 && (k == 0 || len(want) > 0) {
				calls = 1
			}
			if got.calls != calls {
				t.Fatalf("batch %d level %d: %d feed calls, want %d", bi, k, got.calls, calls)
			}
			if len(want) > 0 && k > deepest {
				deepest = k
			}
			*got = fed{items: got.items[:0], ds: got.ds[:0]}
		}
	}
	if deepest < 8 || deepest == len(levels)-1 {
		t.Fatalf("deepest level reached is %d: the batches should get deep and still die out early", deepest)
	}
}
