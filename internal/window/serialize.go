package window

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// Wire format (big endian, header per internal/wire):
//
//	magic u32 | version u16 | fingerprint u64 | now u64 | live panes × blob
//
// The fingerprint digests the window shape (W, K) and the pane
// estimator's own fingerprint, so a snapshot only decodes onto a window
// of the same length, the same pane capacity, and panes of the same
// function, options and seed. The clock travels so the decoder can
// verify the sender is at the same tick, which fixes the live panes and
// so their count; the sketches inside each pane travel as nested blobs in
// their own checked wire formats; a pane that never saw an update ships
// as the empty pane's image.
//
// The magic names the window format: "gSWP" is this pane format, and
// "gSUW", the exponential-histogram format it replaced (bucket
// boundaries on the wire), is refused by name.
const (
	windowMagic    uint32 = 0x67535750 // "gSWP"
	histogramMagic uint32 = 0x67535557 // "gSUW"
)

// Fingerprint digests the window configuration and the pane fingerprint
// (cached at construction; it is independent of the window's data and
// clock, so it can be checked before any pane state is examined).
func (w *Window) Fingerprint() uint64 { return w.fp }

// MarshalBinary serializes the clock and every live pane's sketch. Two
// windows with the same configuration, seed, clock and data produce
// byte-identical snapshots (an empty pane serializes identically whether
// or not it was ever built — unbuilt panes ship the cached empty-pane
// image).
func (w *Window) MarshalBinary() ([]byte, error) {
	var wr wire.Writer
	wr.Header(windowMagic, w.Fingerprint())
	wr.U64(w.now)
	for i, p := range w.panes {
		blob, err := w.emptyBlob, error(nil)
		if p != nil {
			if blob, err = p.MarshalBinary(); err != nil {
				return nil, fmt.Errorf("window: pane %d: %w", i, err)
			}
		}
		wr.Blob(blob)
	}
	return wr.Bytes(), nil
}

// UnmarshalBinary ADDS a serialized window into w, pane by pane (merge
// semantics, matching Merge). The receiver must have the same
// configuration and seed (checked via the header fingerprint) and the
// same clock. The whole payload — every nested pane blob — is decoded
// into staging panes and validated BEFORE any receiver pane is touched,
// so an error never leaves the window half-merged.
func (w *Window) UnmarshalBinary(data []byte) error {
	if len(data) >= 4 && binary.BigEndian.Uint32(data) == histogramMagic {
		return fmt.Errorf("window: snapshot is in the exponential-histogram window format (gSUW); this build reads the pane window format (gSWP) only")
	}
	r := wire.NewReader(data)
	if err := r.Header(windowMagic, w.Fingerprint()); err != nil {
		return fmt.Errorf("window: %w", err)
	}
	now := r.U64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("window: %w", err)
	}
	if now != w.now {
		return fmt.Errorf("window: clock mismatch: wire %d vs local %d (advance both to the same tick)", now, w.now)
	}
	staged := make([]*core.OnePassEstimator, len(w.panes))
	for i := range staged {
		blob := r.Blob()
		if err := r.Err(); err != nil {
			return fmt.Errorf("window: pane %d: %w", i, err)
		}
		if bytes.Equal(blob, w.emptyBlob) {
			continue // an empty pane contributes nothing; skip staging it
		}
		staged[i] = w.newPane()
		if err := staged[i].UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("window: pane %d: %w", i, err)
		}
	}
	if r.End(); r.Err() != nil {
		return fmt.Errorf("window: %w", r.Err())
	}
	for i, sk := range staged {
		switch {
		case sk == nil:
		case w.panes[i] == nil:
			w.panes[i] = sk // the staging pane is exclusively ours
		default:
			mustMerge(w.panes[i], sk)
		}
	}
	return nil
}
