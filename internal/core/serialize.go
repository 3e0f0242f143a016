package core

import (
	"fmt"
	"sort"

	"repro/internal/gfunc"
	"repro/internal/wire"
)

// Wire formats for the public estimators (header per internal/wire).
// Each estimator payload carries a fingerprint of its resolved Options
// (including the Seed) plus the nested sketch blobs, so a snapshot from
// a worker daemon only decodes onto a coordinator constructed with
// byte-identical configuration — the distributed analog of the
// "identical Options, including Seed" contract on Merge. UnmarshalBinary
// has merge semantics throughout: decoding a shard snapshot into a
// receiver adds the shard's counter state, and decoding several shard
// snapshots reproduces the estimator state of the union stream.

const (
	onePassEstMagic uint32 = 0x67535545 // "gSUE"
	twoPassEstMagic uint32 = 0x67535546 // "gSUF"
	exactMagic      uint32 = 0x67535558 // "gSUX"
)

// OptionsFingerprint digests every Options field into a 64-bit value
// with the wire package's fold. It is the options half of the estimator
// wire fingerprints below, and the backend registry folds it into the
// Spec fingerprint two daemons exchange before shipping snapshots.
func OptionsFingerprint(o Options) uint64 { return optionsFingerprint(o) }

// optionsFingerprint digests the resolved Options fields that govern
// sketch shape and hash functions.
func optionsFingerprint(o Options) uint64 {
	h := wire.Fingerprint(0, o.N)
	h = wire.Fingerprint(h, uint64(o.M))
	h = wire.FingerprintFloat(h, o.Eps)
	h = wire.FingerprintFloat(h, o.Delta)
	h = wire.FingerprintFloat(h, o.Lambda)
	h = wire.Fingerprint(h, uint64(o.Levels))
	h = wire.FingerprintFloat(h, o.WidthFactor)
	h = wire.Fingerprint(h, o.Seed)
	return wire.FingerprintFloat(h, o.Envelope)
}

func estimatorFingerprint(g gfunc.Func, o Options) uint64 {
	return wire.FingerprintString(optionsFingerprint(o), g.Name())
}

// Fingerprint digests the estimator's function and resolved Options.
func (e *OnePassEstimator) Fingerprint() uint64 {
	return estimatorFingerprint(e.g, e.opts)
}

// MarshalBinary serializes the one-pass estimator state: the recursive
// sketch with every level's Algorithm 2 state.
func (e *OnePassEstimator) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(onePassEstMagic, e.Fingerprint())
	blob, err := e.sk.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(blob)
	return w.Bytes(), nil
}

// UnmarshalBinary adds a serialized shard estimator into e (merge
// semantics). The receiver must have been built with identical g and
// Options, including Seed; the fingerprint verifies this on decode, and
// the whole payload is checked before any counter moves.
func (e *OnePassEstimator) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(onePassEstMagic, e.Fingerprint()); err != nil {
		return fmt.Errorf("core: OnePassEstimator: %w", err)
	}
	blob := r.Blob()
	r.End()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: OnePassEstimator: %w", err)
	}
	return e.sk.UnmarshalBinary(blob)
}

// Fingerprint digests the estimator's function and resolved Options.
func (e *TwoPassEstimator) Fingerprint() uint64 {
	return estimatorFingerprint(e.g, e.opts)
}

// MarshalBinary serializes the two-pass estimator state (see
// recursive.TwoPass.MarshalBinary).
func (e *TwoPassEstimator) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(twoPassEstMagic, e.Fingerprint())
	blob, err := e.sk.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(blob)
	return w.Bytes(), nil
}

// UnmarshalBinary adds a serialized shard estimator into e (merge
// semantics; candidate sets follow heavy.TwoPass.UnmarshalBinary rules).
func (e *TwoPassEstimator) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(twoPassEstMagic, e.Fingerprint()); err != nil {
		return fmt.Errorf("core: TwoPassEstimator: %w", err)
	}
	blob := r.Blob()
	r.End()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: TwoPassEstimator: %w", err)
	}
	return e.sk.UnmarshalBinary(blob)
}

// Fingerprint digests the exact baseline's configuration: only the
// function identity matters (the frequency map is shape-free).
func (e *ExactEstimator) Fingerprint() uint64 {
	return wire.FingerprintString(0, e.g.Name())
}

// MarshalBinary serializes the exact baseline: the sparse frequency
// vector in ascending item order (a canonical encoding, so identical
// states marshal to identical bytes).
func (e *ExactEstimator) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(exactMagic, e.Fingerprint())
	items := make([]uint64, 0, len(e.freq))
	for it := range e.freq {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	w.U32(uint32(len(items)))
	for _, it := range items {
		w.U64(it)
		w.I64(e.freq[it])
	}
	return w.Bytes(), nil
}

// UnmarshalBinary adds a serialized shard's frequencies into e (merge
// semantics, like every estimator in this file): frequencies add, and
// entries that cancel to zero are dropped. The whole payload is decoded
// before the receiver is mutated.
func (e *ExactEstimator) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(exactMagic, e.Fingerprint()); err != nil {
		return fmt.Errorf("core: ExactEstimator: %w", err)
	}
	n := int(r.U32())
	if uint64(n)*16 > uint64(r.Len()) {
		return fmt.Errorf("core: ExactEstimator: truncated payload: %d entries, %d bytes remain", n, r.Len())
	}
	items := make([]uint64, 0, n)
	freqs := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, r.U64())
		freqs = append(freqs, r.I64())
	}
	r.End()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: ExactEstimator: %w", err)
	}
	for i, it := range items {
		e.Update(it, freqs[i])
	}
	return nil
}
