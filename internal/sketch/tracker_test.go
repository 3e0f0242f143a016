package sketch

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stream"
	"repro/internal/util"
)

// TestMedianMatchesSort checks the selection network against
// sort-and-index for every length a row count can take, on random data
// dense with duplicates and with the int64 extremes.
func TestMedianMatchesSort(t *testing.T) {
	rng := util.NewSplitMix64(21)
	pool := []int64{math.MinInt64, math.MinInt64 + 1, -7, -1, 0, 0, 1, 7, math.MaxInt64 - 1, math.MaxInt64}
	for n := 1; n <= 21; n++ {
		for trial := 0; trial < 2000; trial++ {
			v := make([]int64, n)
			for i := range v {
				switch trial % 3 {
				case 0: // few distinct values: duplicates everywhere
					v[i] = pool[rng.Uint64n(uint64(len(pool)))]
				case 1: // full range
					v[i] = int64(rng.Next())
				default: // small range around zero
					v[i] = int64(rng.Uint64n(5)) - 2
				}
			}
			in := append([]int64(nil), v...)
			if got, want := median(v), medianInt64(in); got != want {
				t.Fatalf("n %d trial %d: median of %v is %d, want %d", n, trial, in, got, want)
			}
		}
	}
}

// medianInt64 is the reference median: a sorted copy indexed at len/2.
func medianInt64(xs []int64) int64 {
	cp := slices.Clone(xs)
	slices.Sort(cp)
	return cp[len(cp)/2]
}

// mapTracker is the tracker as it was before its item → heap-index lookup
// became a flat probe table: the same indexed min-heap over a Go map. It
// is kept as the reference of TestTrackerMatchesMapTracker — heap order
// decides which item an offer evicts and the order items() lists them in,
// and snapshots and merges depend on both.
type mapTracker struct {
	k    int
	heap []topEntry
	pos  map[uint64]int
}

func (t *mapTracker) offer(item uint64, est int64) {
	a := util.SatAbsInt64(est)
	if idx, ok := t.pos[item]; ok {
		t.heap[idx].score = a
		t.up(idx)
		t.down(idx)
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, topEntry{item: item, score: a})
		t.pos[item] = len(t.heap) - 1
		t.up(len(t.heap) - 1)
		return
	}
	if a <= t.heap[0].score {
		return
	}
	delete(t.pos, t.heap[0].item)
	t.heap[0] = topEntry{item: item, score: a}
	t.pos[item] = 0
	t.down(0)
}

func (t *mapTracker) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.pos[t.heap[i].item] = i
	t.pos[t.heap[j].item] = j
}

func (t *mapTracker) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.heap[i].score >= t.heap[p].score {
			break
		}
		t.swap(i, p)
		i = p
	}
}

func (t *mapTracker) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && t.heap[l].score < t.heap[m].score {
			m = l
		}
		if r < n && t.heap[r].score < t.heap[m].score {
			m = r
		}
		if m == i {
			return
		}
		t.swap(i, m)
		i = m
	}
}

// TestTrackerMatchesMapTracker drives the tracker and the map-backed
// reference with the same random offers — new items, tracked items
// re-scored up and down, evictions, ties at the floor, both extremes —
// and compares items() (the heap, in heap order) after every one. The
// probe table is also checked against the heap it indexes.
func TestTrackerMatchesMapTracker(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 64, 97} {
		rng := util.NewSplitMix64(uint64(k))
		got := newTopTracker(k)
		want := &mapTracker{k: k, pos: make(map[uint64]int)}
		// Items from a universe a few times k, spread over the 64-bit
		// range and, for a third of them, sharing their low bits, so probe
		// runs collide, wrap around the table and get shifted on eviction.
		universe := make([]uint64, 4*k+3)
		for i := range universe {
			if universe[i] = rng.Next(); i%3 == 0 {
				universe[i] = uint64(i) << 32
			}
		}
		for op := 0; op < 20000; op++ {
			item := universe[rng.Uint64n(uint64(len(universe)))]
			var est int64
			switch rng.Uint64n(8) {
			case 0: // tie with the floor, from either sign
				if len(want.heap) > 0 {
					est = want.heap[0].score
					if rng.Bool() && est != math.MaxInt64 {
						est = -est
					}
				}
			case 1:
				est = int64(rng.Next()) // anywhere, MinInt64's neighbourhood included
			case 2:
				est = []int64{math.MinInt64, math.MaxInt64, 0}[rng.Uint64n(3)]
			default: // a small range: many equal scores
				est = int64(rng.Uint64n(41)) - 20
			}
			got.offer(item, est)
			want.offer(item, est)
			gi := got.items()
			if len(gi) != len(want.heap) {
				t.Fatalf("k %d op %d: %d items, want %d", k, op, len(gi), len(want.heap))
			}
			for i, e := range want.heap {
				if gi[i] != e.item || got.heap[i].score != e.score {
					t.Fatalf("k %d op %d: heap[%d] = (%d, %d), want (%d, %d)",
						k, op, i, gi[i], got.heap[i].score, e.item, e.score)
				}
				if s := got.heap[i].slot; got.pos[s] != int32(i)+1 {
					t.Fatalf("k %d op %d: heap[%d].slot = %d, but pos[%d] = %d", k, op, i, s, s, got.pos[s])
				}
			}
			live := 0
			for _, p := range got.pos {
				if p != 0 {
					live++
				}
			}
			if live != len(gi) {
				t.Fatalf("k %d op %d: %d live slots for %d items", k, op, live, len(gi))
			}
		}
	}
}

// TestMinInt64DeltaDoesNotPanic feeds the one delta whose magnitude does
// not fit an int64. Every row's counter for the item becomes MinInt64, so
// does its estimate, and the tracker has to score it: |estimate| saturates
// instead of panicking, on ingest and on every read of the candidates.
// A second copy of the update wraps the counters back to zero.
func TestMinInt64DeltaDoesNotPanic(t *testing.T) {
	for name, feed := range map[string]func(*CountSketch, uint64, int64){
		"Update":      func(cs *CountSketch, it uint64, d int64) { cs.Update(it, d) },
		"UpdateBatch": func(cs *CountSketch, it uint64, d int64) { cs.UpdateBatch([]stream.Update{{Item: it, Delta: d}}) },
	} {
		cs := NewCountSketchTopK(7, 64, 4, util.NewSplitMix64(1))
		feed(cs, 5, 9)
		feed(cs, 3, math.MinInt64)
		if est := cs.Estimate(3); est != math.MinInt64 {
			t.Fatalf("%s: estimate %d, want MinInt64", name, est)
		}
		top := cs.TopK()
		if len(top) != 2 || top[0].Item != 3 || top[0].Est != math.MinInt64 {
			t.Fatalf("%s: TopK %v, want item 3 at MinInt64 first", name, top)
		}
		feed(cs, 3, math.MinInt64)
		if est := cs.Estimate(3); est != 0 {
			t.Fatalf("%s: estimate %d after the second MinInt64, want 0", name, est)
		}
		if est := cs.Estimate(5); est != 9 {
			t.Fatalf("%s: estimate of the bystander %d, want 9", name, est)
		}
	}
}

// TestRejectMatchesOffer holds the batch walk's re-score — which skips the
// median and the offer for an untracked item with most of its row
// estimates inside the floor — to "offer every item the median of its
// column", run on the map-backed reference tracker: after every batch the
// heap (order, items, scores) is the same and the probe table indexes it.
// The estimate matrices are made up, so the cases the proof turns on come
// up all the time: values tying the floor from either sign, exactly half
// the rows inside, tracked items re-scored below the floor in the middle
// of a batch, a tracker that fills in the middle of one, both int64
// extremes, even and odd row counts.
func TestRejectMatchesOffer(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		for _, k := range []int{1, 3, 16} {
			rng := util.NewSplitMix64(uint64(100*rows + k))
			cs := NewCountSketchTopK(rows, 8, k, util.NewSplitMix64(1))
			want := &mapTracker{k: k, pos: make(map[uint64]int)}
			universe := make([]uint64, 5*k+2)
			for i := range universe {
				universe[i] = rng.Next()
			}
			for batch := 0; batch < 400; batch++ {
				// Distinct items, as a collapsed batch has them: the first n
				// of a fresh shuffle of the universe.
				n := 1 + int(rng.Uint64n(uint64(len(universe))))
				for i := 0; i < n; i++ {
					j := i + int(rng.Uint64n(uint64(len(universe)-i)))
					universe[i], universe[j] = universe[j], universe[i]
				}
				items := universe[:n]
				floor := int64(0)
				if len(want.heap) > 0 {
					floor = want.heap[0].score
				}
				ests := make([]int64, rows*n)
				for c := range ests {
					switch rng.Uint64n(8) {
					case 0, 1: // tie with the floor at the start of the batch
						ests[c] = floor
					case 2:
						if ests[c] = -floor; floor == math.MaxInt64 {
							ests[c] = math.MinInt64
						}
					case 3: // one step outside or inside it
						ests[c] = floor + int64(rng.Uint64n(3)) - 1
						if floor == math.MaxInt64 {
							ests[c] = floor
						}
					case 4:
						ests[c] = []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 0}[rng.Uint64n(4)]
					default: // a small range: many equal scores
						ests[c] = int64(rng.Uint64n(41)) - 20
					}
				}
				sel := make([]int32, n)
				for i := range sel {
					sel[i] = int32(i)
				}
				cs.rescore(items, sel, ests)
				for i, it := range items {
					col := make([]int64, rows)
					for j := range col {
						col[j] = ests[j*n+i]
					}
					want.offer(it, medianInt64(col))
				}
				got := cs.topK
				if len(got.heap) != len(want.heap) {
					t.Fatalf("rows %d k %d batch %d: %d items, want %d", rows, k, batch, len(got.heap), len(want.heap))
				}
				for i, e := range want.heap {
					g := got.heap[i]
					if g.item != e.item || g.score != e.score {
						t.Fatalf("rows %d k %d batch %d: heap[%d] = (%d, %d), want (%d, %d)",
							rows, k, batch, i, g.item, g.score, e.item, e.score)
					}
					if got.pos[g.slot] != int32(i)+1 {
						t.Fatalf("rows %d k %d batch %d: heap[%d].slot = %d, but pos[%d] = %d",
							rows, k, batch, i, g.slot, g.slot, got.pos[g.slot])
					}
				}
			}
		}
	}
}
