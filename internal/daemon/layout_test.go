package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/wire"
)

// specFingerprintAt is backend.Spec.Fingerprint as a build of layout
// version v computes it: the same fold behind the version — and behind
// nothing before version 2. A worker of such a build sends this in the
// /v1/config handshake.
func specFingerprintAt(t *testing.T, s backend.Spec, v uint16) uint64 {
	t.Helper()
	s, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(0)
	if v > 1 {
		h = wire.Fingerprint(0, uint64(v))
	}
	h = wire.FingerprintString(h, string(s.Kind))
	h = wire.FingerprintString(h, s.G)
	h = wire.Fingerprint(h, core.OptionsFingerprint(s.Options))
	h = wire.Fingerprint(h, s.Window.W)
	h = wire.Fingerprint(h, uint64(s.Window.K))
	h = wire.Fingerprint(h, uint64(s.Workers))
	h = wire.Fingerprint(h, uint64(s.Rows))
	h = wire.Fingerprint(h, s.Buckets)
	return wire.Fingerprint(h, uint64(s.TopK))
}

// asLayout returns a copy of a wire payload with its header's layout
// version set back to v: what a build before the bump stamped.
func asLayout(payload []byte, v uint16) []byte {
	out := append([]byte(nil), payload...)
	binary.BigEndian.PutUint16(out[4:], v)
	return out
}

// TestOlderLayoutIsRefusedAtTheDoor: the same Spec opens a different
// sketch under every layout version, so "equal Specs" stopped meaning
// "merge-compatible" the moment the layout moved. A build any layout
// behind — version 1's own hashes a level, version 2's sizing, version 3's
// 8 bytes a counter, version 4's twice the buckets and 8 bytes an id,
// version 5's byte-aligned varint rows — must be
// turned away where the mismatch is cheap and legible — the /v1/config
// handshake, naming this build's version; the snapshot's header and the
// checkpoint's, naming both — with nothing merged, and a daemon that
// refused must go on serving from the state it had.
func TestOlderLayoutIsRefusedAtTheDoor(t *testing.T) {
	spec := onePassSpec(42)
	if wire.Version != 6 {
		t.Fatalf("wire.Version = %d: counter rows as exp-Golomb codes are version 6", wire.Version)
	}
	if own := specFingerprintAt(t, spec, wire.Version); own != spec.Fingerprint() {
		t.Fatalf("the test's fold gives %#x for this build's version, Spec.Fingerprint %#x", own, spec.Fingerprint())
	}

	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)
	if err := srv.IngestBatch(testStream(3).Updates()); err != nil {
		t.Fatal(err)
	}
	before, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckSpecContext(context.Background(), spec.Fingerprint()); err != nil {
		t.Errorf("handshake with the daemon's own fingerprint: %v", err)
	}
	path := CheckpointPath(t.TempDir())
	if err := srv.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for old := uint16(1); old < wire.Version; old++ {
		theirs, ours := fmt.Sprintf("version %d", old), fmt.Sprintf("version %d", wire.Version)
		names := func(err error, more ...string) bool {
			for _, want := range append(more, theirs, ours) {
				if err == nil || !strings.Contains(err.Error(), want) {
					return false
				}
			}
			return true
		}
		older := specFingerprintAt(t, spec, old)
		if older == spec.Fingerprint() {
			t.Fatalf("Spec fingerprint %#x does not depend on the layout version: a %s build passes the handshake", spec.Fingerprint(), theirs)
		}

		// The handshake: a worker of the older build. A fingerprint does
		// not say which layout folded it, so the refusal names this one's.
		if err := c.CheckSpecContext(context.Background(), older); err == nil || !strings.Contains(err.Error(), "409") ||
			!strings.Contains(err.Error(), "layout") || !strings.Contains(err.Error(), ours) {
			t.Errorf("handshake with a layout-%d fingerprint: %v; want a 409 that names the layout, and this build's %s, as a cause", old, err, ours)
		}

		// A snapshot stamped by the older layout: refused whole.
		if err := c.MergeContext(context.Background(), asLayout(before, old)); !names(err) {
			t.Errorf("merge of a layout-%d snapshot: %v; want a refusal naming both versions", old, err)
		}
		after, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("after a refused layout-%d snapshot: the daemon's state moved", old)
		}

		// A checkpoint stamped by the older layout: refused, and the daemon
		// that refused it is empty and serving, not wedged.
		if err := os.WriteFile(path, asLayout(ckpt, old), 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreCheckpoint(path); !names(err, path) {
			t.Errorf("restore of a layout-%d checkpoint: %v; want a refusal naming the file and both versions", old, err)
		}
		fts := httptest.NewServer(fresh.Handler())
		t.Cleanup(fts.Close)
		fc := NewClient(fts.URL, nil)
		info, err := fc.ConfigContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if info.Ingested != 0 {
			t.Errorf("after a refused checkpoint the daemon reports %d ingested updates, want an empty start", info.Ingested)
		}
		if err := fresh.IngestBatch(testStream(3).Updates()); err != nil {
			t.Errorf("after a refused checkpoint the daemon does not ingest: %v", err)
		}
		got, err := fc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, before) {
			t.Error("after a refused checkpoint and the same stream, the daemon's state differs from its peer's")
		}
	}
}
