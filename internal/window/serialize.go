package window

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// Wire format (big endian, header per internal/wire):
//
//	magic u32 | version u16 | fingerprint u64
//	now u64 | buckets u32 | buckets × (start u64 | span u64 | blob)
//
// The fingerprint digests the window shape (W, K) and the bucket
// estimator's own fingerprint, so a snapshot only decodes onto a window
// of the same length, the same histogram capacity, and buckets of the
// same function, options and seed. Bucket boundaries travel so the
// decoder can verify the sender was driven through the same tick
// sequence; the sketches inside each bucket travel as nested blobs in
// their own checked wire formats; a bucket that never saw an update
// ships as the empty bucket's image.

const windowMagic uint32 = 0x67535557 // "gSUW"

// Fingerprint digests the window configuration and the bucket
// fingerprint (cached at construction; it is independent of the
// window's data and clock, so it can be checked before any bucket
// state is examined).
func (w *Window) Fingerprint() uint64 { return w.fp }

// MarshalBinary serializes the clock, the bucket boundaries, and every
// bucket's sketch. Two windows with the same configuration, seed, tick
// sequence, and data produce byte-identical snapshots (an empty bucket
// serializes identically whether or not it was ever built — unbuilt
// buckets ship the cached empty-bucket image).
func (w *Window) MarshalBinary() ([]byte, error) {
	var wr wire.Writer
	wr.Header(windowMagic, w.Fingerprint())
	wr.U64(w.now)
	wr.U32(uint32(len(w.buckets)))
	for _, b := range w.buckets {
		wr.U64(b.start)
		wr.U64(b.span)
		blob, err := w.emptyBlob, error(nil)
		if b.sk != nil {
			blob, err = b.sk.MarshalBinary()
			if err != nil {
				return nil, fmt.Errorf("window: bucket [%d,+%d): %w", b.start, b.span, err)
			}
		}
		wr.Blob(blob)
	}
	return wr.Bytes(), nil
}

// UnmarshalBinary ADDS a serialized window into w, bucket by bucket
// (merge semantics, matching Merge). The receiver must have the same
// configuration and seed (checked via the header fingerprint) and have
// been advanced through the same tick sequence (checked via the clock
// and every bucket boundary). The whole payload — boundaries and every
// nested bucket blob — is decoded into staging buckets and validated
// BEFORE any receiver bucket is touched, so an error never leaves the
// window half-merged.
func (w *Window) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(windowMagic, w.Fingerprint()); err != nil {
		return fmt.Errorf("window: %w", err)
	}
	now := r.U64()
	n := r.U32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("window: %w", err)
	}
	if now != w.now {
		return fmt.Errorf("window: clock mismatch: wire %d vs local %d (advance both to the same tick)", now, w.now)
	}
	if int(n) != len(w.buckets) {
		return fmt.Errorf("window: bucket count mismatch: wire %d vs local %d", n, len(w.buckets))
	}
	staged := make([]*core.OnePassEstimator, len(w.buckets))
	for i := range w.buckets {
		start, span := r.U64(), r.U64()
		blob := r.Blob()
		if err := r.Err(); err != nil {
			return fmt.Errorf("window: bucket %d: %w", i, err)
		}
		if start != w.buckets[i].start || span != w.buckets[i].span {
			return fmt.Errorf("window: bucket %d boundary mismatch: wire [%d,+%d) vs local [%d,+%d)",
				i, start, span, w.buckets[i].start, w.buckets[i].span)
		}
		if bytes.Equal(blob, w.emptyBlob) {
			continue // an empty bucket contributes nothing; skip staging it
		}
		staged[i] = w.newBucket()
		if err := staged[i].UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("window: bucket %d: %w", i, err)
		}
	}
	if r.End(); r.Err() != nil {
		return fmt.Errorf("window: %w", r.Err())
	}
	for i, sk := range staged {
		w.buckets[i].absorb(sk) // the staging bucket is exclusively ours
	}
	return nil
}
