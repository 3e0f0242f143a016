package heavy

import (
	"fmt"

	"repro/internal/wire"
)

// Wire formats for the heavy-hitter layer (header per internal/wire:
// magic u32 | version u16 | fingerprint u64, all big endian). As with
// sketch.CountSketch, hash functions never travel — the fingerprint
// digests them so a decode onto a receiver built from a different seed
// or configuration fails fast, and UnmarshalBinary has merge semantics:
// it ADDS the serialized shard state into the receiver.

const (
	onePassMagic uint32 = 0x67535548 // "gSUH"
	twoPassMagic uint32 = 0x67535532 // "gSU2"
	candsMagic   uint32 = 0x67535551 // "gSUQ" — two-pass candidate set
)

// Fingerprint digests the Algorithm 2 configuration: the function name,
// the accuracy/envelope parameters, and the underlying CountSketch
// (dimensions + hash coefficients).
func (o *OnePass) Fingerprint() uint64 {
	h := wire.FingerprintString(0, o.g.Name())
	h = wire.FingerprintFloat(h, o.eps)
	h = wire.FingerprintFloat(h, o.h)
	h = wire.Fingerprint(h, uint64(o.topk))
	return wire.Fingerprint(h, o.cs.Fingerprint())
}

// MarshalBinary serializes the Algorithm 2 state: the CountSketch
// counters and the tracked candidate identities.
func (o *OnePass) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(onePassMagic, o.Fingerprint())
	blob, err := o.cs.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(blob)
	return w.Bytes(), nil
}

// UnmarshalBinary adds serialized shard state into o (merge semantics):
// counters add by linearity and the shard's candidates are re-offered
// against the merged state, exactly as Merge does in-process. A payload
// refused anywhere leaves o as it was.
func (o *OnePass) UnmarshalBinary(data []byte) error { return wire.Unmarshal(o, data) }

// StageBinary checks a payload whole against o and returns the merge
// that adds it in (wire.Stager).
func (o *OnePass) StageBinary(data []byte) (func(), error) {
	r := wire.NewReader(data)
	if err := r.Header(onePassMagic, o.Fingerprint()); err != nil {
		return nil, fmt.Errorf("heavy: OnePass: %w", err)
	}
	blob := r.Blob()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("heavy: OnePass: %w", err)
	}
	return o.cs.StageBinary(blob)
}

// Fingerprint digests the Algorithm 1 configuration: the function name,
// the candidate capacity, and the first-pass CountSketch.
func (t *TwoPass) Fingerprint() uint64 {
	h := wire.FingerprintString(0, t.g.Name())
	h = wire.Fingerprint(h, uint64(t.topk))
	return wire.Fingerprint(h, t.cs.Fingerprint())
}

// MarshalBinary serializes the full Algorithm 1 state: the first-pass
// CountSketch, the extracted candidate identities (empty before
// FinishPass1), and their second-pass tabulations.
func (t *TwoPass) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(twoPassMagic, t.Fingerprint())
	blob, err := t.cs.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(blob)
	w.U64s(t.cands)
	counts := make([]int64, len(t.cands))
	for i, it := range t.cands {
		counts[i] = t.counts[it]
	}
	w.I64s(counts)
	return w.Bytes(), nil
}

// UnmarshalBinary adds serialized shard state into t (merge semantics).
// The first-pass counters merge by linearity (MergePass1). If the
// payload carries a candidate set, the receiver must either hold none
// yet (it adopts the sender's, as AdoptCandidates) or hold the identical
// set (tabulations add, as MergePass2). A payload refused anywhere leaves
// t as it was.
func (t *TwoPass) UnmarshalBinary(data []byte) error { return wire.Unmarshal(t, data) }

// StageBinary checks a payload whole against t — the first-pass sketch
// and the candidate section — and returns the merge that adds it in
// (wire.Stager).
func (t *TwoPass) StageBinary(data []byte) (func(), error) {
	r := wire.NewReader(data)
	if err := r.Header(twoPassMagic, t.Fingerprint()); err != nil {
		return nil, fmt.Errorf("heavy: TwoPass: %w", err)
	}
	blob := r.Blob()
	cands := r.U64s()
	counts := r.I64s()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("heavy: TwoPass: %w", err)
	}
	if len(counts) != len(cands) {
		return nil, fmt.Errorf("heavy: TwoPass: %d tabulations for %d candidates", len(counts), len(cands))
	}
	adopt := false
	if len(cands) > 0 {
		switch {
		case len(t.cands) == 0:
			adopt = true
		case len(t.cands) != len(cands):
			return nil, fmt.Errorf("heavy: TwoPass: candidate set mismatch (%d vs %d)", len(t.cands), len(cands))
		default:
			for _, it := range cands {
				if _, ok := t.counts[it]; !ok {
					return nil, fmt.Errorf("heavy: TwoPass: candidate %d not in local set", it)
				}
			}
		}
	}
	mergePass1, err := t.cs.StageBinary(blob)
	if err != nil {
		return nil, err
	}
	return func() {
		mergePass1()
		switch {
		case len(cands) == 0:
		case adopt:
			t.cands = append(t.cands[:0], cands...)
			t.counts = make(map[uint64]int64, len(cands))
			for i, it := range cands {
				t.counts[it] = counts[i]
			}
		default:
			for i, it := range cands {
				t.counts[it] += counts[i]
			}
		}
	}, nil
}

// MarshalCandidates serializes only the candidate identities extracted
// by FinishPass1, the coordinator -> worker half of the distributed
// two-pass protocol (the counter-free analog of AdoptCandidates).
func (t *TwoPass) MarshalCandidates() ([]byte, error) {
	var w wire.Writer
	w.Header(candsMagic, t.Fingerprint())
	w.U64s(t.cands)
	return w.Bytes(), nil
}

// UnmarshalCandidates adopts a serialized candidate set, resetting the
// second-pass tabulations to zero (AdoptCandidates over the wire).
func (t *TwoPass) UnmarshalCandidates(data []byte) error {
	adopt, err := t.StageCandidates(data)
	if err != nil {
		return err
	}
	adopt()
	return nil
}

// StageCandidates checks a candidate payload whole and returns the
// adoption UnmarshalCandidates performs, which cannot fail: the
// candidate-set analog of StageBinary, for decoders that adopt a set a
// level and must refuse all levels or none.
func (t *TwoPass) StageCandidates(data []byte) (func(), error) {
	r := wire.NewReader(data)
	if err := r.Header(candsMagic, t.Fingerprint()); err != nil {
		return nil, fmt.Errorf("heavy: TwoPass candidates: %w", err)
	}
	cands := r.U64s()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("heavy: TwoPass candidates: %w", err)
	}
	return func() {
		t.cands = append(t.cands[:0], cands...)
		t.counts = make(map[uint64]int64, len(cands))
		for _, it := range cands {
			t.counts[it] = 0
		}
	}, nil
}
