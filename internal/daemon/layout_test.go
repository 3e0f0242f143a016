package daemon

import (
	"bytes"
	"encoding/binary"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/wire"
)

// specFingerprintV1 is backend.Spec.Fingerprint as builds before layout
// version 2 computed it: the same fold, without the layout version in
// front. A worker of such a build sends this in the /v1/config handshake.
func specFingerprintV1(t *testing.T, s backend.Spec) uint64 {
	t.Helper()
	s, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	h := wire.FingerprintString(0, string(s.Kind))
	h = wire.FingerprintString(h, s.G)
	h = wire.Fingerprint(h, core.OptionsFingerprint(s.Options))
	h = wire.Fingerprint(h, s.Window.W)
	h = wire.Fingerprint(h, uint64(s.Window.K))
	h = wire.Fingerprint(h, uint64(s.Workers))
	h = wire.Fingerprint(h, uint64(s.Rows))
	h = wire.Fingerprint(h, s.Buckets)
	return wire.Fingerprint(h, uint64(s.TopK))
}

// asLayoutV1 returns a copy of a wire payload with its header's layout
// version set back to 1: what a build before the bump stamped.
func asLayoutV1(payload []byte) []byte {
	out := append([]byte(nil), payload...)
	binary.BigEndian.PutUint16(out[4:], 1)
	return out
}

// TestOlderLayoutIsRefusedAtTheDoor: the same Spec opens a different
// sketch under every layout version, so "equal Specs" stopped meaning
// "merge-compatible" the moment the layout moved. A build one layout
// behind must be turned away where the mismatch is cheap and legible — the
// /v1/config handshake, the snapshot's header, the checkpoint's header —
// with nothing merged, and a daemon that refused must go on serving from
// the state it had.
func TestOlderLayoutIsRefusedAtTheDoor(t *testing.T) {
	spec := onePassSpec(42)
	if wire.Version < 2 {
		t.Fatalf("wire.Version = %d: the recursion-depth and shared-row-hash layout is version 2", wire.Version)
	}
	if old := specFingerprintV1(t, spec); old == spec.Fingerprint() {
		t.Fatalf("Spec fingerprint %#x does not depend on the layout version: an older build passes the handshake", old)
	}

	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)
	if err := c.Push(testStream(3).Updates()); err != nil {
		t.Fatal(err)
	}
	before, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(when string) {
		t.Helper()
		after, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: the daemon's state moved", when)
		}
	}

	// The handshake: both fingerprints in the refusal.
	err = c.CheckSpec(specFingerprintV1(t, spec))
	if err == nil || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "layout") {
		t.Errorf("handshake with a layout-1 fingerprint: %v; want a 409 that names the layout version as a cause", err)
	}
	if err := c.CheckSpec(spec.Fingerprint()); err != nil {
		t.Errorf("handshake with the daemon's own fingerprint: %v", err)
	}

	// A snapshot stamped by the older layout: refused whole.
	err = c.Merge(asLayoutV1(before))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("merge of a layout-1 snapshot: %v; want a refusal naming version 1", err)
	}
	unchanged("after a refused layout-1 snapshot")

	// A checkpoint stamped by the older layout: refused, and the daemon
	// that refused it is empty and serving, not wedged.
	path := CheckpointPath(t.TempDir())
	if err := srv.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, asLayoutV1(ckpt), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = fresh.RestoreCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), path) {
		t.Errorf("restore of a layout-1 checkpoint: %v; want a refusal naming the file and version 1", err)
	}
	fts := httptest.NewServer(fresh.Handler())
	t.Cleanup(fts.Close)
	fc := NewClient(fts.URL, nil)
	info, err := fc.Config()
	if err != nil {
		t.Fatal(err)
	}
	if info.Ingested != 0 {
		t.Errorf("after a refused checkpoint the daemon reports %d ingested updates, want an empty start", info.Ingested)
	}
	if err := fc.Push(testStream(3).Updates()); err != nil {
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
