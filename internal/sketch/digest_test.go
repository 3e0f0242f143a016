package sketch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/stream"
	"repro/internal/util"
)

// digestStream is a fixed 2^16-update turnstile stream: items from the
// whole 64-bit range folded onto 2^13 ids (so values above 2^61-1 reach
// the kernel's item reduction and the tracker sees many times more
// distinct items than it holds), signed deltas, and a handful of heavy
// items that climb and fall so tracked entries are re-scored in both
// directions.
func digestStream() []stream.Update {
	rng := util.NewSplitMix64(0x16d1635)
	ups := make([]stream.Update, 1<<16)
	for i := range ups {
		it := rng.Uint64n(1<<13) * 0x9e3779b97f4a7c15
		d := int64(rng.Uint64n(9)) - 4
		if rng.Uint64n(8) == 0 {
			it = rng.Uint64n(32) * 0x9e3779b97f4a7c15
			d = int64(rng.Uint64n(2001)) - 1000
		}
		ups[i] = stream.Update{Item: it, Delta: d}
	}
	return ups
}

// ingestDigestStream feeds the stream the three ways the library is fed:
// full batches, ragged batches (tails of 1..3 items after the four-lane
// walk) and single updates.
func ingestDigestStream(cs *CountSketch, ups []stream.Update) {
	half := len(ups) / 2
	for i := 0; i < half; i += 4096 {
		cs.UpdateBatch(ups[i : i+4096])
	}
	i := half
	for n := 1; i+n <= len(ups)-1024; n = n%257 + 1 {
		cs.UpdateBatch(ups[i : i+n])
		i += n
	}
	for _, u := range ups[i:] {
		cs.Update(u.Item, u.Delta)
	}
}

// TestCountSketchStateDigest pins the tracked CountSketch's state after
// the fixed stream: the wire snapshot (counters + sorted candidate ids)
// and the tracker's heap order, which the snapshot's sort hides. The
// digests were recorded before the row kernel, the median and the
// tracker index were rewritten (PR 16); those rewrites are bit-identical
// and any later one has to be too, or change the digest on purpose —
// as layout version 2 did: a row reads an item's bucket and sign off one
// polynomial value where it evaluated two, so every counter moved. The
// digests were re-recorded once, with that change (CHANGES.md, PR 21, has
// the values before and after), once for layout version 3 (PR 27),
// which moved no counter of a bare CountSketch, only the version its
// header carries, once for version 4 (PR 29), which moved no counter
// either: the rows are written as zigzag varints with zero runs (with
// raw rows and a version-3 header the tree gave the version-3 digests,
// CHANGES.md, PR 29), and once for version 5 (PR 40), which moved no
// counter of a bare CountSketch either: the version, and the tracked ids
// through the id codec, and once for version 6, which moved no
// counter either: the rows are per-row exp-Golomb codes (with the
// version-5 row codec and header the tree gave the version-5 digests).
func TestCountSketchStateDigest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		buckets uint64
		want    string
	}{
		{"mask-4096", 4096, "01a65fca1772536617f24a8099b5e67aae5332f37f474da4f2a60ee39030d92b"},
		{"mod-4206", 4206, "fc71166ebf741cd1f339263c732db3c2ca6164f1c4173a16118d70a5546bc83f"},
	} {
		cs := NewCountSketchTopK(7, tc.buckets, 64, util.NewSplitMix64(16))
		ingestDigestStream(cs, digestStream())
		data, err := cs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(data)
		for _, it := range cs.topK.items() {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], it)
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: state digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
