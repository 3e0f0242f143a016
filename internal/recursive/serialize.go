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
	sketchMagic  uint32 = 0x67535552 // "gSUR"
	twoPassMagic uint32 = 0x67535554 // "gSUT"
)

// subFingerprint digests the subsampling Bernoulli hashes.
func subFingerprint(sub []*xhash.Bernoulli) uint64 {
	h := wire.Fingerprint(0, uint64(len(sub)))
	for _, b := range sub {
		h = b.Fingerprint(h)
	}
	return h
}

// levelsFingerprint folds every level's own fingerprint into h, so a
// configuration difference at ANY level is caught by the outer header
// before any counter is touched.
func levelsFingerprint[S interface{ Fingerprint() uint64 }](h uint64, levels []S) uint64 {
	h = wire.Fingerprint(h, uint64(len(levels)))
	for _, lv := range levels {
		h = wire.Fingerprint(h, lv.Fingerprint())
	}
	return h
}

// Fingerprint digests the level count, the subsampling hashes, and
// every level sketcher's configuration.
func (s *Sketch) Fingerprint() uint64 {
	return levelsFingerprint(subFingerprint(s.sub), s.levels)
}

// MarshalBinary serializes every level's sketch state.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return marshalLevels(sketchMagic, s.Fingerprint(), s.levels)
}

// marshalLevels writes the header and one blob per level: the one
// encoding behind both recursive sketches.
func marshalLevels[S encoding.BinaryMarshaler](magic uint32, fp uint64, levels []S) ([]byte, error) {
	var w wire.Writer
	w.Header(magic, fp)
	w.U32(uint32(len(levels)))
	for k, lv := range levels {
		blob, err := lv.MarshalBinary()
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
// (wire.Stager).
func (s *Sketch) StageBinary(data []byte) (func(), error) {
	return stageLevels(data, sketchMagic, s.Fingerprint(), s.levels)
}

// stageLevels reads a level list under the given header and stages every
// level's blob onto the matching level: the one decode behind both
// recursive sketches.
func stageLevels[S wire.Stager](data []byte, magic uint32, fp uint64, levels []S) (func(), error) {
	r := wire.NewReader(data)
	if err := r.Header(magic, fp); err != nil {
		return nil, fmt.Errorf("recursive: %w", err)
	}
	blobs, err := r.Blobs(len(levels))
	if err != nil {
		return nil, fmt.Errorf("recursive: %w", err)
	}
	if r.End(); r.Err() != nil {
		return nil, fmt.Errorf("recursive: %w", r.Err())
	}
	return wire.StageEach(len(levels), func(k int) (func(), error) {
		merge, err := levels[k].StageBinary(blobs[k])
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
// counters, candidates, tabulations). It is also how a coordinator hands
// its candidate sets to workers in another process: a receiver holding
// none adopts the payload's (heavy.TwoPass.UnmarshalBinary).
func (s *TwoPass) MarshalBinary() ([]byte, error) {
	return marshalLevels(twoPassMagic, s.Fingerprint(), s.levels)
}

// UnmarshalBinary adds serialized two-pass shard state into s, level by
// level (merge semantics; see heavy.TwoPass.UnmarshalBinary for the
// candidate-set rules). Every level's payload is checked whole before any
// level is mutated.
func (s *TwoPass) UnmarshalBinary(data []byte) error { return wire.Unmarshal(s, data) }

// StageBinary checks a payload whole against s and returns the merge
// that adds it in (wire.Stager).
func (s *TwoPass) StageBinary(data []byte) (func(), error) {
	return stageLevels(data, twoPassMagic, s.Fingerprint(), s.levels)
}
