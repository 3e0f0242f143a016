package recursive

import (
	"encoding"
	"fmt"

	"repro/internal/wire"
	"repro/internal/xhash"
)

// Wire formats for the recursive sketch (header per internal/wire). A
// serialized recursive sketch is the level count followed by one
// length-framed blob per level — each level's own wire payload, carrying
// its own magic and fingerprint — so corruption at any depth is caught
// by the layer that owns the bytes. The header fingerprint digests the
// subsampling hashes (the sampled-substream metadata): two sketches
// built from the same Config and seed agree on which items survive to
// which level, which is exactly the contract merging requires.
//
// Layout version 2 (wire.Version) changed what those bytes hold, not how
// they are framed. The level count is the resolved depth plus one (Depth:
// 14 blobs where version 1 wrote 21 at the benchmark's options), and it is
// checked against the receiver's before anything else, so a sketch of one
// depth never decodes onto a sketch of another. And the levels of one
// stack evaluate one CountSketch row-hash family, so their blobs carry
// equal fingerprints; position in the list, not the fingerprint, says
// which level a blob belongs to.

const (
	sketchMagic       uint32 = 0x67535552 // "gSUR"
	twoPassMagic      uint32 = 0x67535554 // "gSUT"
	twoPassCandsMagic uint32 = 0x67535556 // "gSUV"
)

// subFingerprint digests the subsampling Bernoulli hashes.
func subFingerprint(sub []*xhash.Bernoulli) uint64 {
	h := wire.Fingerprint(0, uint64(len(sub)))
	for _, b := range sub {
		h = b.Fingerprint(h)
	}
	return h
}

// fingerprinter is implemented by level sketchers whose configuration
// can be digested (heavy.OnePass and heavy.TwoPass are).
type fingerprinter interface {
	Fingerprint() uint64
}

// levelsFingerprint folds every level's own fingerprint into h, so a
// configuration difference at ANY level is caught by the outer header
// before any counter is touched.
func levelsFingerprint[S any](h uint64, levels []S) uint64 {
	h = wire.Fingerprint(h, uint64(len(levels)))
	for _, lv := range levels {
		if fp, ok := any(lv).(fingerprinter); ok {
			h = wire.Fingerprint(h, fp.Fingerprint())
		}
	}
	return h
}

// Fingerprint digests the level count, the subsampling hashes, and
// every level sketcher's configuration.
func (s *Sketch) Fingerprint() uint64 {
	return levelsFingerprint(subFingerprint(s.sub), s.levels)
}

// MarshalBinary serializes every level's sketch state. All level
// sketchers must implement encoding.BinaryMarshaler (heavy.OnePass
// does).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return marshalLevels(sketchMagic, s.Fingerprint(), s.levels)
}

// marshalLevels writes the header and one blob per level: the one
// encoding behind both recursive sketches.
func marshalLevels[S any](magic uint32, fp uint64, levels []S) ([]byte, error) {
	var w wire.Writer
	w.Header(magic, fp)
	w.U32(uint32(len(levels)))
	for k, lv := range levels {
		m, ok := any(lv).(encoding.BinaryMarshaler)
		if !ok {
			return nil, fmt.Errorf("recursive: level %d sketcher %T does not support serialization", k, lv)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("recursive: level %d: %w", k, err)
		}
		w.Blob(blob)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary adds serialized shard state into s, level by level
// (merge semantics, as Merge). The receiver must have been built with
// identical Config and seed; the header fingerprint verifies the
// subsampling hashes AND every level's configuration, and every level's
// payload is checked whole (StageBinary) before any level's counters
// move, so a payload refused at any depth leaves s as it was.
func (s *Sketch) UnmarshalBinary(data []byte) error { return wire.Unmarshal(s, data) }

// StageBinary checks a payload whole against s — the level list and
// every level's payload — and returns the merge that adds it in
// (wire.Stager). Every level sketcher must implement wire.Stager
// (heavy.OnePass does).
func (s *Sketch) StageBinary(data []byte) (func(), error) {
	return stageLevels(data, sketchMagic, s.Fingerprint(), s.levels)
}

// stageLevels reads a level list under the given header and stages every
// level's blob onto the matching level: the one decode behind both
// recursive sketches.
func stageLevels[S any](data []byte, magic uint32, fp uint64, levels []S) (func(), error) {
	r := wire.NewReader(data)
	if err := r.Header(magic, fp); err != nil {
		return nil, fmt.Errorf("recursive: %w", err)
	}
	blobs, err := r.Blobs(len(levels))
	if err != nil {
		return nil, fmt.Errorf("recursive: %w", err)
	}
	return wire.StageEach(len(levels), func(k int) (func(), error) {
		st, ok := any(levels[k]).(wire.Stager)
		if !ok {
			return nil, fmt.Errorf("recursive: level %d sketcher %T does not support serialization", k, levels[k])
		}
		merge, err := st.StageBinary(blobs[k])
		if err != nil {
			return nil, fmt.Errorf("recursive: level %d: %w", k, err)
		}
		return merge, nil
	})
}

// Fingerprint digests the two-pass sketch's level count, subsampling
// hashes, and every level sketcher's configuration.
func (s *TwoPass) Fingerprint() uint64 {
	return levelsFingerprint(subFingerprint(s.sub), s.levels)
}

// MarshalBinary serializes every level's two-pass state (first-pass
// counters, candidates, tabulations). All level sketchers must
// implement encoding.BinaryMarshaler (heavy.TwoPass does).
func (s *TwoPass) MarshalBinary() ([]byte, error) {
	return marshalLevels(twoPassMagic, s.Fingerprint(), s.levels)
}

// UnmarshalBinary adds serialized two-pass shard state into s, level by
// level (merge semantics; see heavy.TwoPass.UnmarshalBinary for the
// candidate-set rules). Every level's payload is checked whole before any
// level is mutated.
func (s *TwoPass) UnmarshalBinary(data []byte) error { return wire.Unmarshal(s, data) }

// StageBinary checks a payload whole against s and returns the merge
// that adds it in (wire.Stager). Every level sketcher must implement
// wire.Stager (heavy.TwoPass does).
func (s *TwoPass) StageBinary(data []byte) (func(), error) {
	return stageLevels(data, twoPassMagic, s.Fingerprint(), s.levels)
}

// candidateCodec is the candidate-set half of the distributed two-pass
// protocol (heavy.TwoPass implements it).
type candidateCodec interface {
	MarshalCandidates() ([]byte, error)
	StageCandidates([]byte) (func(), error)
}

// MarshalCandidates serializes the per-level candidate sets extracted by
// FinishPass1 — the coordinator -> worker half of the distributed
// two-pass protocol (AdoptCandidates over the wire).
func (s *TwoPass) MarshalCandidates() ([]byte, error) {
	var w wire.Writer
	w.Header(twoPassCandsMagic, s.Fingerprint())
	w.U32(uint32(len(s.levels)))
	for k, lv := range s.levels {
		c, ok := lv.(candidateCodec)
		if !ok {
			return nil, fmt.Errorf("recursive: level %d sketcher %T does not support candidate exchange", k, lv)
		}
		blob, err := c.MarshalCandidates()
		if err != nil {
			return nil, fmt.Errorf("recursive: level %d: %w", k, err)
		}
		w.Blob(blob)
	}
	return w.Bytes(), nil
}

// UnmarshalCandidates adopts serialized per-level candidate sets,
// resetting every level's tabulations to zero. Every level's set is
// checked before any level adopts one.
func (s *TwoPass) UnmarshalCandidates(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(twoPassCandsMagic, s.Fingerprint()); err != nil {
		return fmt.Errorf("recursive: candidates: %w", err)
	}
	blobs, err := r.Blobs(len(s.levels))
	if err != nil {
		return fmt.Errorf("recursive: %w", err)
	}
	adopt, err := wire.StageEach(len(s.levels), func(k int) (func(), error) {
		c, ok := s.levels[k].(candidateCodec)
		if !ok {
			return nil, fmt.Errorf("recursive: level %d sketcher %T does not support candidate exchange", k, s.levels[k])
		}
		adopt, err := c.StageCandidates(blobs[k])
		if err != nil {
			return nil, fmt.Errorf("recursive: level %d: %w", k, err)
		}
		return adopt, nil
	})
	if err != nil {
		return err
	}
	adopt()
	return nil
}
