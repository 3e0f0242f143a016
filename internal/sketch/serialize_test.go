package sketch

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sketch/sketchtest"
	"repro/internal/util"
	"repro/internal/wire"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	u := testVector(31, 200, 500)
	src := NewCountSketch(5, 512, util.NewSplitMix64(77))
	feed(src, u)
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	dst := NewCountSketch(5, 512, util.NewSplitMix64(77)) // same seed: same hashes
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for it := range u {
		if src.Estimate(it) != dst.Estimate(it) {
			t.Fatalf("estimate mismatch for %d after round trip", it)
		}
	}
}

func TestUnmarshalAddsLikeMerge(t *testing.T) {
	u := testVector(33, 150, 100)
	w := testVector(34, 150, 100)
	a := NewCountSketch(5, 512, util.NewSplitMix64(9))
	b := NewCountSketch(5, 512, util.NewSplitMix64(9))
	both := NewCountSketch(5, 512, util.NewSplitMix64(9))
	feed(a, u)
	feed(b, w)
	feed(both, u)
	feed(both, w)

	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for it := range u {
		if a.Estimate(it) != both.Estimate(it) {
			t.Fatalf("unmarshal-merge mismatch for item %d", it)
		}
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	cs := NewCountSketch(5, 512, util.NewSplitMix64(1))
	if err := cs.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("expected error on truncated input")
	}
	other := NewCountSketch(5, 256, util.NewSplitMix64(1))
	data, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.UnmarshalBinary(data); err == nil {
		t.Error("expected dimension mismatch error")
	}
	// Corrupt the magic.
	data[0] ^= 0xff
	if err := other.UnmarshalBinary(data); err == nil {
		t.Error("expected magic mismatch error")
	}
}

func TestMarshalCarriesTrackedCandidates(t *testing.T) {
	src := NewCountSketchTopK(5, 1024, 8, util.NewSplitMix64(3))
	src.Update(12345, 100000)
	src.Update(777, 50000)
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewCountSketchTopK(5, 1024, 8, util.NewSplitMix64(3))
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, c := range dst.TopK() {
		found[c.Item] = true
	}
	if !found[12345] || !found[777] {
		t.Errorf("tracked candidates lost in serialization: %v", found)
	}
}

func TestUnmarshalTrackerMatchesMergeTopK(t *testing.T) {
	// The wire path must admit exactly the candidates the in-process
	// merge admits: both re-offer the shard's items AND re-score the
	// receiver's own survivors against the merged counters.
	mk := func() *CountSketch { return NewCountSketchTopK(5, 1024, 4, util.NewSplitMix64(11)) }
	feedA := func(cs *CountSketch) {
		for i := uint64(0); i < 8; i++ {
			cs.Update(i, int64(1000*(i+1)))
		}
	}
	// Shard B's items shuffle the union's top-4 ordering. Its weights
	// either fall with the id, so it tracks the receiver's 4..7, or rise,
	// so it tracks 8..11 while adding to the receiver's survivors too.
	for _, weight := range []func(i uint64) int64{
		func(i uint64) int64 { return int64(900 * (13 - i)) },
		func(i uint64) int64 { return int64(900 * (i - 3)) },
	} {
		feedB := func(cs *CountSketch) {
			for i := uint64(4); i < 12; i++ {
				cs.Update(i, weight(i))
			}
		}

		viaMerge, shardB := mk(), mk()
		feedA(viaMerge)
		feedB(shardB)
		if err := viaMerge.Merge(shardB); err != nil {
			t.Fatal(err)
		}

		viaWire := mk()
		feedA(viaWire)
		data, err := shardB.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := viaWire.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}

		a, b := viaMerge.TopK(), viaWire.TopK()
		if len(a) != len(b) {
			t.Fatalf("tracker sizes differ: merge %d vs wire %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("candidate %d: merge %+v vs wire %+v", i, a[i], b[i])
			}
		}
		// Both re-score the receiver's own survivors: every tracked score
		// is its item's estimate against the merged counters.
		for name, cs := range map[string]*CountSketch{"merge": viaMerge, "wire": viaWire} {
			for _, e := range cs.topK.heap {
				if est := util.SatAbsInt64(cs.Estimate(e.item)); e.score != est {
					t.Errorf("%s: item %d tracked at score %d, merged estimate %d", name, e.item, e.score, est)
				}
			}
		}
	}
}

// TestUnmarshalIntoEmptyTrackerSkipsNothing: a receiver that tracked
// nothing skips re-scoring its survivors, which are the candidates just
// scored; re-offering them would leave the heap exactly as it is.
func TestUnmarshalIntoEmptyTrackerSkipsNothing(t *testing.T) {
	src := NewCountSketchTopK(5, 512, 16, util.NewSplitMix64(12))
	feed(src, testVector(44, 400, 60))
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewCountSketchTopK(5, 512, 16, util.NewSplitMix64(12))
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	heap := append([]topEntry(nil), dst.topK.heap...)
	for _, it := range dst.topK.items() {
		dst.topK.offer(it, dst.Estimate(it))
	}
	if len(heap) == 0 || !reflect.DeepEqual(heap, dst.topK.heap) {
		t.Errorf("re-scoring the survivors of a decode into an empty tracker moved its heap (%d entries)", len(heap))
	}
}

func TestMergeTopKUnionCandidates(t *testing.T) {
	a := NewCountSketchTopK(5, 1024, 8, util.NewSplitMix64(7))
	b := NewCountSketchTopK(5, 1024, 8, util.NewSplitMix64(7))
	a.Update(1, 90000)
	b.Update(2, 80000)
	// An item split across shards, heavy only in the union:
	a.Update(3, 45000)
	b.Update(3, 45000)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	found := map[uint64]int64{}
	for _, c := range a.TopK() {
		found[c.Item] = c.Est
	}
	if found[1] == 0 || found[2] == 0 {
		t.Errorf("shard-local heavy items lost: %v", found)
	}
	if found[3] < 85000 {
		t.Errorf("union-heavy item has estimate %d, want ~90000", found[3])
	}
}

// TestRefusedUnmarshalChangesNothing: a well-framed payload with one bad
// row late in it — the last row a counter short or a counter long — or a
// trailing byte is refused, and the receiver marshals byte-identically
// before and after. (Malformed tokens: wire's TestRowRefusesMalformedTokens.)
func TestRefusedUnmarshalChangesNothing(t *testing.T) {
	src := NewCountSketchTopK(5, 512, 8, util.NewSplitMix64(41))
	dst := NewCountSketchTopK(5, 512, 8, util.NewSplitMix64(41))
	feed(src, testVector(42, 300, 80))
	feed(dst, testVector(43, 300, 80))
	payload := func(last func(w *wire.Writer, row []int64), trailing ...byte) []byte {
		var w wire.Writer
		w.Header(countSketchMagic, src.Fingerprint())
		w.U32(uint32(src.rows))
		w.U64(src.buckets)
		rows := src.counters()
		b := int(src.buckets)
		for j := 0; j < src.rows-1; j++ {
			w.Row(rows[j*b : (j+1)*b])
		}
		last(&w, rows[(src.rows-1)*b:])
		tracked := src.TrackedItems()
		slices.Sort(tracked)
		w.IDs(tracked)
		return append(w.Bytes(), trailing...)
	}
	whole := func(w *wire.Writer, row []int64) { w.Row(row) }
	for name, bad := range map[string][]byte{
		"short last row": payload(func(w *wire.Writer, row []int64) { w.Row(row[:len(row)-1]) }),
		"long last row": payload(func(w *wire.Writer, row []int64) {
			w.Row(append(append([]int64(nil), row...), 1))
		}),
		"trailing byte": payload(whole, 0),
		"sketchtest":    sketchtest.BreakLastRow(t, payload(whole)),
	} {
		before, err := dst.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: payload accepted", name)
		}
		after, err := dst.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: a refused payload changed the receiver", name)
		}
	}
	err := dst.UnmarshalBinary(sketchtest.BreakLastRow(t, payload(whole)))
	if want := "row 4: wire: row of 511 counters, want 512"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sketchtest.BreakLastRow: %v, want the refusal of the last row (%q)", err, want)
	}
	if err := dst.UnmarshalBinary(payload(whole)); err != nil {
		t.Errorf("the well-formed payload the bad ones are cut from: %v", err)
	}
}
