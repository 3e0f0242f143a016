package daemon

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/window"
)

func onePassSpec(seed uint64) backend.Spec {
	return backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(seed)}
}

// TestRestoreRefusesDriftedFingerprint: a checkpoint written under a
// different Spec (one field off — the seed) is refused at boot, and the
// in-memory state stays untouched. The error names the checkpoint's path
// and both fingerprints, the checkpoint's and the daemon's, so a drifted
// -seed or -n is diagnosable from the one log line it produces.
func TestRestoreRefusesDriftedFingerprint(t *testing.T) {
	writer, err := NewServer(onePassSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	writer.est.Update(7, 3)
	path := CheckpointPath(t.TempDir())
	if err := writer.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	drifted, err := NewServer(onePassSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	err = drifted.RestoreCheckpoint(path)
	if err == nil {
		t.Fatal("drifted checkpoint was restored")
	}
	for _, want := range []string{
		"refusing checkpoint",
		path,
		"fingerprint mismatch",
		fmt.Sprintf("%#x", writer.Spec().Fingerprint()),
		fmt.Sprintf("%#x", drifted.Spec().Fingerprint()),
		"different seed or configuration",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("drift error %q lacks %q", err, want)
		}
	}
	if est := drifted.est.Estimate(); est != 0 {
		t.Errorf("state mutated by a refused restore: estimate %v", est)
	}
}

// TestRestoreMissingFileIsNotExist: a missing checkpoint surfaces
// os.ErrNotExist so boot code can treat it as a fresh start.
func TestRestoreMissingFileIsNotExist(t *testing.T) {
	srv, err := NewServer(onePassSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	err = srv.RestoreCheckpoint(CheckpointPath(t.TempDir()))
	if !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint: got %v, want os.ErrNotExist", err)
	}
}

// TestRestoreRefusesCorruptCheckpoint: truncation and garbage are
// decode errors, not silent partial restores.
func TestRestoreRefusesCorruptCheckpoint(t *testing.T) {
	srv, err := NewServer(onePassSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := CheckpointPath(dir)
	if err := srv.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string][]byte{
		"truncated": data[:len(data)-9],
		"garbage":   []byte("not a checkpoint at all"),
	} {
		if err := os.WriteFile(path, mutate, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := srv.RestoreCheckpoint(path); err == nil {
			t.Errorf("%s checkpoint restored without error", name)
		}
	}
}

// TestCheckpointWriteIsAtomic: a successful write leaves exactly the
// checkpoint file in the state dir — no lingering tmp files — and
// overwrites the previous checkpoint in place.
func TestCheckpointWriteIsAtomic(t *testing.T) {
	srv, err := NewServer(onePassSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := CheckpointPath(dir)
	for i := 0; i < 3; i++ {
		srv.est.Update(uint64(i), 1)
		if err := srv.WriteCheckpoint(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != CheckpointName {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("state dir holds %v, want exactly [%s]", names, CheckpointName)
	}
}

// TestWindowCheckpointRestoresClock: the window kind's tick clock
// survives the checkpoint; without it the fresh estimator would sit at
// tick 0 and refuse its own snapshot as clock drift.
func TestWindowCheckpointRestoresClock(t *testing.T) {
	spec := windowSpec(7, 4, 0)
	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	win := srv.est.(backend.Windowed)
	win.Advance(5)
	srv.est.Update(3, 2)
	path := CheckpointPath(t.TempDir())
	if err := srv.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	restored, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if now := restored.est.(backend.Windowed).Now(); now != 5 {
		t.Errorf("restored clock %d, want 5", now)
	}
	if got, want := restored.est.Estimate(), srv.est.Estimate(); got != want {
		t.Errorf("restored windowed estimate %v != original %v", got, want)
	}
}

// TestKillAndRestartE2E is the durability headline: a worker is killed
// mid-run (connections torn down, in-memory state gone), restarted from
// its checkpoint, fed the updates the crash lost, and the coordinator's
// merged estimate is still bit-identical to the serial single-machine
// run over the whole stream.
func TestKillAndRestartE2E(t *testing.T) {
	spec := onePassSpec(42)
	s := testStream(11)
	updates := s.Updates()
	half := len(updates) / 2
	w2Updates := updates[half:]
	ckptAt := len(w2Updates) / 2

	serial := serialEstimator(t, spec, s)

	mk := func(srv *Server) *httptest.Server {
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	newSrv := func() *Server {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	w1, coord := newSrv(), newSrv()
	w1TS, coordTS := mk(w1), mk(coord)
	if err := w1.IngestBatch(updates[:half]); err != nil {
		t.Fatal(err)
	}

	// Worker 2: ingest the first part of its shard, checkpoint, ingest a
	// bit more (these post-checkpoint updates die with the process), then
	// kill -9: tear down its connections and abandon the in-memory state.
	stateDir := t.TempDir()
	ckptPath := CheckpointPath(stateDir)
	w2 := newSrv()
	w2TS := httptest.NewServer(w2.Handler())
	if err := w2.IngestBatch(w2Updates[:ckptAt]); err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteCheckpoint(ckptPath); err != nil {
		t.Fatal(err)
	}
	if err := w2.IngestBatch(w2Updates[ckptAt : ckptAt+ckptAt/2]); err != nil {
		t.Fatal(err)
	}
	w2TS.CloseClientConnections()
	w2TS.Close()
	w2 = nil

	// Restart from the checkpoint and re-deliver everything after it —
	// exactly what an at-least-once pusher does with unacknowledged-
	// since-checkpoint batches.
	w2b := newSrv()
	if err := w2b.RestoreCheckpoint(ckptPath); err != nil {
		t.Fatalf("restart from checkpoint: %v", err)
	}
	w2bTS := mk(w2b)
	if err := w2b.IngestBatch(w2Updates[ckptAt:]); err != nil {
		t.Fatal(err)
	}

	cc := NewClient(coordTS.URL, nil)
	if err := cc.PullFromContext(context.Background(), []string{w1TS.URL, w2bTS.URL}); err != nil {
		t.Fatal(err)
	}
	got, err := cc.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if est := *got.Estimate; est != serial.Estimate() {
		t.Errorf("post-crash merged estimate %.17g != serial %.17g", est, serial.Estimate())
	}
}

// TestCheckpointerPeriodicAndFinal: the loop writes without being
// asked, and Stop writes the final state even when the interval never
// fired again.
func TestCheckpointerPeriodicAndFinal(t *testing.T) {
	srv, err := NewServer(onePassSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	path := CheckpointPath(t.TempDir())
	srv.est.Update(1, 1)
	ck := StartCheckpointer(srv, path, 5*time.Millisecond, t.Logf)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never appeared")
		}
		time.Sleep(time.Millisecond)
	}

	// Mutate, stop, and verify the final checkpoint carries the
	// post-mutation state.
	srv.mu.Lock()
	srv.est.Update(2, 7)
	want := srv.est.Estimate() // reads replay into the sketch's scratch: under the lock too
	srv.mu.Unlock()
	if err := ck.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	restored, err := NewServer(onePassSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if got := restored.est.Estimate(); got != want {
		t.Errorf("final checkpoint estimate %v, want %v", got, want)
	}
}

// windowSpecFingerprint pins that the checkpoint header fingerprint is
// the Spec fingerprint, i.e. the same value the /v1/config handshake
// exchanges — one drift check, three enforcement points (handshake,
// merge, restore).
func TestCheckpointHeaderUsesSpecFingerprint(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindCountSketch,
		Options: core.Options{N: 1 << 10, Seed: 9}, Rows: 3, Buckets: 64,
		Window: window.Config{}}
	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := srv.checkpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	// Header layout: u32 magic, u16 version, u64 fingerprint.
	var fp uint64
	for _, b := range data[6:14] {
		fp = fp<<8 | uint64(b)
	}
	if want := srv.Spec().Fingerprint(); fp != want {
		t.Errorf("checkpoint header fingerprint %#x != Spec fingerprint %#x", fp, want)
	}
	if filepath.Base(CheckpointPath("/var/lib/gsumd")) != CheckpointName {
		t.Error("CheckpointPath does not end in CheckpointName")
	}
}

// TestRestoreWithTornTempFile simulates a crash mid-checkpoint: the
// atomic-write protocol may leave a partial checkpoint.gsum.tmp-* file
// in the state dir. Boot must restore the intact previous checkpoint,
// never the torn temp — and with no real checkpoint at all, a torn temp
// alone still means fresh start (os.ErrNotExist), not a corrupt-file
// error.
func TestRestoreWithTornTempFile(t *testing.T) {
	writer, err := NewServer(onePassSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	writer.est.Update(7, 3)
	dir := t.TempDir()
	path := CheckpointPath(dir)
	if err := writer.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The crash artifact: a prefix of a checkpoint under the temp name
	// pattern CreateTemp would have used, never renamed into place.
	torn := filepath.Join(dir, CheckpointName+".tmp-123456")
	if err := os.WriteFile(torn, good[:len(good)/2], 0o600); err != nil {
		t.Fatal(err)
	}

	restored, err := NewServer(onePassSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpoint(path); err != nil {
		t.Fatalf("restore with a torn temp alongside: %v", err)
	}
	if got, want := restored.est.Estimate(), writer.est.Estimate(); got != want {
		t.Errorf("restored estimate %v != writer's %v", got, want)
	}

	// Fresh start: only the torn temp exists.
	freshDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(freshDir, CheckpointName+".tmp-9"), good[:8], 0o600); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewServer(onePassSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreCheckpoint(CheckpointPath(freshDir)); !os.IsNotExist(err) {
		t.Fatalf("torn temp without a checkpoint: got %v, want os.ErrNotExist", err)
	}
	// And the next successful write replaces the checkpoint atomically
	// regardless of the leftover temp.
	if err := writer.WriteCheckpoint(path); err != nil {
		t.Fatalf("write over a dir holding a torn temp: %v", err)
	}
}

// liveState is what a refused restore or merge must leave alone: the
// estimator's snapshot and the ingest counter.
func liveState(t *testing.T, srv *Server) ([]byte, uint64) {
	t.Helper()
	var snap []byte
	var ingests uint64
	var err error
	srv.locked(func() { snap, err = srv.est.MarshalBinary(); ingests = srv.ingests })
	if err != nil {
		t.Fatal(err)
	}
	return snap, ingests
}

// TestCheckpointTruncatedAtEveryOffset: a checkpoint cut at any byte
// offset — in its header, its counters, the last row of its deepest
// level — is refused with the live daemon's state and ingest counter
// untouched, and only the whole file restores, whole.
func TestCheckpointTruncatedAtEveryOffset(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2",
		Options: core.Options{N: 1 << 8, M: 1 << 6, Eps: 0.5, Seed: 3, Lambda: 1.0 / 4}}
	src, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(srv *Server, seed uint64) {
		s := stream.Zipf(stream.GenConfig{N: 1 << 8, M: 1 << 6, Seed: seed}, 40, 1.1)
		if err := srv.IngestBatch(s.Updates()); err != nil {
			t.Fatal(err)
		}
	}
	fill(src, 1)
	fill(live, 2)
	path := CheckpointPath(t.TempDir())
	if err := src.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, ingests := liveState(t, live)
	// Each cut gets a path of its own: rewriting one file in place stalls
	// on some filesystems for tens of milliseconds a time, and production
	// checkpoints never do it (they write a temp file and rename it).
	cuts := t.TempDir()
	for cut := 0; cut < len(ckpt); cut++ {
		path := filepath.Join(cuts, fmt.Sprintf("cut-%d", cut))
		if err := os.WriteFile(path, ckpt[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := live.RestoreCheckpoint(path); err == nil {
			t.Fatalf("a checkpoint cut to %d of %d bytes restored", cut, len(ckpt))
		}
		if snap, n := liveState(t, live); n != ingests || !bytes.Equal(snap, before) {
			t.Fatalf("a checkpoint cut to %d of %d bytes was refused, but the live state moved", cut, len(ckpt))
		}
	}
	if err := os.WriteFile(path, ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := live.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	want, wantIngests := liveState(t, src)
	if got, n := liveState(t, live); n != wantIngests || !bytes.Equal(got, want) {
		t.Errorf("the whole checkpoint restored to other state (%d ingested, want %d)", n, wantIngests)
	}
}

// TestCheckpointRefusesTrailingByte: a whole checkpoint with one byte
// appended is refused like a cut one, naming the trailing byte, with the
// live daemon's state and ingest counter untouched.
func TestCheckpointRefusesTrailingByte(t *testing.T) {
	spec := onePassSpec(1)
	src, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.IngestBatch(testStream(1).Updates()); err != nil {
		t.Fatal(err)
	}
	if err := live.IngestBatch(testStream(2).Updates()); err != nil {
		t.Fatal(err)
	}
	path := CheckpointPath(t.TempDir())
	if err := src.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(ckpt, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	before, ingests := liveState(t, live)
	if err := live.RestoreCheckpoint(path); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("restore of a checkpoint with a trailing byte: %v, want a trailing-bytes refusal", err)
	}
	if snap, n := liveState(t, live); n != ingests || !bytes.Equal(snap, before) {
		t.Error("a checkpoint with a trailing byte was refused, but the live state moved")
	}
}
