package sketch

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// Linear sketches are shippable: a worker sketches its shard of the
// stream, serializes the counter state, and a coordinator merges the
// shards into the sketch of the union stream. The hash functions are NOT
// serialized — they are reconstructed deterministically from the seed, so
// the wire format stays small and the seed is the only coordination
// needed. Marshal/Unmarshal therefore pair with the same seed-discipline
// rule as Merge: the receiving sketch must have been constructed with
// identical dimensions and seed — and unlike Merge, the wire header's
// fingerprint (a digest of the hash-function coefficients) lets the
// decoder CHECK that contract instead of trusting the caller. The
// coefficients digested are those of the family the sketch EVALUATES: a
// level of a recursive stack evaluates level 0's (ShareRowHashes), so
// under layout version 2 every level of one stack carries one
// fingerprint, and a level's payload decodes onto any level of an
// identically seeded stack — the level list around it (internal/recursive)
// is what keeps levels apart.
//
// Wire format (big endian, header per internal/wire):
//
//	magic u32 | version u16 | fingerprint u64
//	rows u32 | buckets u64 | rows × row
//	tracked u32 | tracked item ids u64...
//
// where a row (wire.Writer.Row, layout version 4) is its u32 counter
// count, then one token per nonzero counter — the uvarint of its zigzag
// form — or per maximal run of zeros — a 0 byte and the uvarint of the
// run's length. Most of a stack's counters are 0 (every bucket of a deep
// level that no sampled item reached) or small, so a snapshot at the
// benchmark's state is about a tenth of version 3's 8 bytes a counter.
// Decoding checks the whole payload against the receiver's dimensions
// before any counter moves (StageBinary), and walks the rows again to add
// them in: no staging copy of the counters is made.
//
// The tracked-item section carries the top-k candidate ids (when the
// sketch was built with NewCountSketchTopK); estimates are recomputed on
// the receiving side, so only identities travel. The ids are written in
// ascending order — the tracker's heap layout depends on insertion
// history, so sorting is what makes the encoding canonical: two sketches
// holding the same counters and the same candidate SET marshal to
// identical bytes no matter how they arrived at that state (serial
// ingest, sharded ingest, or a chain of merges).

const countSketchMagic uint32 = 0x67535543 // "gSUC"

// Fingerprint digests the sketch's dimensions, the coefficients of the
// row-hash family it evaluates (folded once, when the family is drawn), and
// its tracker capacity. Two CountSketches constructed with
// the same parameters from the same seed have equal fingerprints; it is
// the quantity the wire header validates on decode.
func (cs *CountSketch) Fingerprint() uint64 {
	k := uint64(0)
	if cs.topK != nil {
		k = uint64(cs.topK.k)
	}
	return wire.Fingerprint(cs.hash.digest, k)
}

// MarshalBinary serializes the counter state and tracked candidates.
func (cs *CountSketch) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(countSketchMagic, cs.Fingerprint())
	w.U32(uint32(cs.rows))
	w.U64(cs.buckets)
	for j := 0; j < cs.rows; j++ {
		w.Row(cs.counts[j])
	}
	if cs.topK != nil {
		items := cs.topK.items()
		sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
		w.U64s(items)
	} else {
		w.U64s(nil)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary ADDS the serialized counter state into cs (merge
// semantics, matching the linearity of the sketch). cs must have been
// constructed with the same dimensions and seed as the sender; both are
// verified via the header fingerprint. The whole payload is checked
// BEFORE any counter is touched (StageBinary), so an error never leaves
// cs half-merged. To load a shard into an empty sketch, construct a fresh
// sketch first.
func (cs *CountSketch) UnmarshalBinary(data []byte) error { return wire.Unmarshal(cs, data) }

// StageBinary checks a payload whole against cs — header, dimensions,
// every row's length and tokens, the tracked ids, no trailing bytes —
// and returns the merge that adds it in (wire.Stager).
func (cs *CountSketch) StageBinary(data []byte) (func(), error) {
	r := wire.NewReader(data)
	if err := r.Header(countSketchMagic, cs.Fingerprint()); err != nil {
		return nil, fmt.Errorf("sketch: %w", err)
	}
	rows := r.U32()
	buckets := r.U64()
	if r.Err() == nil && (int(rows) != cs.rows || buckets != cs.buckets) {
		return nil, fmt.Errorf("sketch: dimension mismatch: wire %dx%d vs local %dx%d",
			rows, buckets, cs.rows, cs.buckets)
	}
	counters := data[len(data)-r.Len():]
	for j := 0; j < cs.rows; j++ {
		r.CheckRow(len(cs.counts[j]))
		if r.Err() != nil {
			return nil, fmt.Errorf("sketch: row %d: %w", j, r.Err())
		}
	}
	items := r.U64s()
	r.End()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sketch: %w", err)
	}
	return func() {
		r := wire.NewReader(counters)
		for j := 0; j < cs.rows; j++ {
			r.AddRow(cs.counts[j])
		}
		if cs.topK != nil {
			// Mirror MergeTopK: offer the shard's candidates against the
			// merged counters, then re-score our own survivors too, so wire
			// merges and in-process merges admit the same candidate sets.
			// A receiver that tracked nothing (a restore, a pull's rebuild)
			// has no survivors but the candidates just scored against these
			// counters, and re-offering a score changes no heap.
			rescore := len(cs.topK.heap) > 0
			for _, it := range items {
				cs.topK.offer(it, cs.Estimate(it))
			}
			if rescore {
				for _, it := range cs.topK.items() {
					cs.topK.offer(it, cs.Estimate(it))
				}
			}
		}
	}, nil
}

// TrackedItems returns the identities currently held by the top-k tracker
// (nil when the sketch was built without one). Exposed for merge logic.
func (cs *CountSketch) TrackedItems() []uint64 {
	if cs.topK == nil {
		return nil
	}
	return cs.topK.items()
}

// Tracked returns how many candidates the top-k tracker holds (0 when the
// sketch was built without one): a heap length, for gauges read on every
// scrape.
func (cs *CountSketch) Tracked() int {
	if cs.topK == nil {
		return 0
	}
	return len(cs.topK.heap)
}

// MergeTopK merges another sketch's counters AND its tracked candidates:
// after the counter merge, the other side's candidates are re-offered
// against the merged state, so a candidate heavy in either shard (or only
// in the union) competes on its merged estimate.
func (cs *CountSketch) MergeTopK(other *CountSketch) error {
	if err := cs.Merge(other); err != nil {
		return err
	}
	if cs.topK != nil && other.topK != nil {
		for _, it := range other.topK.items() {
			cs.topK.offer(it, cs.Estimate(it))
		}
		// Re-score our own survivors against the merged counters too.
		for _, it := range cs.topK.items() {
			cs.topK.offer(it, cs.Estimate(it))
		}
	}
	return nil
}
