package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/stream"
)

// syncBuffer lets the test read run()'s output while run() is still
// writing it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// stubServe replaces the blocking serve loop and captures the handler.
func stubServe(t *testing.T) *http.Handler {
	t.Helper()
	orig := serve
	var got http.Handler
	serve = func(l net.Listener, s *http.Server) error {
		got = s.Handler
		l.Close()
		return nil
	}
	t.Cleanup(func() { serve = orig })
	return &got
}

func TestRunServesOnEphemeralPort(t *testing.T) {
	h := stubServe(t)
	var out, errb bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:0", "-backend", "onepass", "-f", "x^2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if *h == nil {
		t.Fatal("serve was not reached")
	}
	if !strings.Contains(out.String(), "listening on") {
		t.Errorf("missing listen banner: %q", out.String())
	}
}

func TestRunRejectsUnknownBackend(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-backend", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown kind") {
		t.Errorf("stderr %q does not name the bad backend kind", errb.String())
	}
}

// TestBackendListPrintsRegistry: `-backend list` prints every
// registered kind straight from the registry and exits 0, so the CLI
// surface cannot drift from the code.
func TestBackendListPrintsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-backend", "list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	for _, kind := range backend.Kinds() {
		if !strings.Contains(out.String(), kind) {
			t.Errorf("list output missing registered kind %q:\n%s", kind, out.String())
		}
	}
}

// TestBackendListIsSorted pins the listing order: the registry returns
// kinds sorted, and the printed lines follow it exactly — including the
// sharded kind — so the output is reproducible for docs and scripts.
func TestBackendListIsSorted(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-backend", "list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if lines[0] != "registered backend kinds:" {
		t.Fatalf("unexpected header %q", lines[0])
	}
	kinds := backend.Kinds()
	if !sort.StringsAreSorted(kinds) {
		t.Fatal("backend.Kinds() is not sorted")
	}
	if len(lines)-1 != len(kinds) {
		t.Fatalf("%d listing lines for %d kinds:\n%s", len(lines)-1, len(kinds), out.String())
	}
	sawSharded := false
	for i, k := range kinds {
		want := fmt.Sprintf("  %-12s %s", k, backend.Describe(backend.Kind(k)))
		if lines[i+1] != want {
			t.Errorf("line %d = %q, want %q", i+1, lines[i+1], want)
		}
		if k == "sharded" {
			sawSharded = true
		}
	}
	if !sawSharded {
		t.Error("sharded kind missing from the registry listing")
	}
}

// TestRunConfigFile: `-config spec.json` loads the whole Spec from the
// file — the same JSON /v1/config serves — and the daemon boots with
// that exact configuration (round trip verified via the fingerprint in
// the listen banner).
func TestRunConfigFile(t *testing.T) {
	spec := backend.Spec{
		Kind: backend.KindSharded, G: "x^2", Workers: 2,
		Options: core.Options{N: 1 << 10, M: 1 << 8, Eps: 0.25, Seed: 99, Lambda: 1.0 / 16},
	}
	blob, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	stubServe(t)
	var out, errb bytes.Buffer
	// The flags say onepass with a different seed; the file must win.
	code := run([]string{"-addr", "127.0.0.1:0", "-backend", "onepass", "-seed", "1", "-config", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	want := fmt.Sprintf("backend=sharded g=x^2 seed=99 fingerprint=%#x", norm.Fingerprint())
	if !strings.Contains(out.String(), want) {
		t.Errorf("banner missing %q:\n%s", want, out.String())
	}
}

func TestRunConfigFileErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-config", filepath.Join(t.TempDir(), "absent.json")}, &out, &errb); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{"-config", bad}, &out, &errb); code != 1 {
		t.Fatalf("bad JSON: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), bad) {
		t.Errorf("stderr %q does not name the bad file", errb.String())
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "bogus") {
		t.Errorf("stderr %q does not name the bad flag", errb.String())
	}
}

func TestRunRejectsStrayArguments(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"extra"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unexpected arguments") {
		t.Errorf("stderr %q does not flag the stray argument", errb.String())
	}
}

// listenAddrOf polls the banner for the bound address.
func listenAddrOf(t *testing.T, out *syncBuffer) string {
	t.Helper()
	re := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen banner in output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGracefulShutdownWritesCheckpointAndRestores drives the real
// lifecycle end to end: serve with -state-dir, push traffic, SIGINT,
// assert run() drains and writes the final checkpoint, then boot a
// second daemon from the same state dir and assert the state survived.
func TestGracefulShutdownWritesCheckpointAndRestores(t *testing.T) {
	stateDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-backend", "onepass", "-f", "x^2",
		"-seed", "7", "-state-dir", stateDir, "-checkpoint-every", "1h"}

	var out, errb syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(args, &out, &errb) }()
	addr := listenAddrOf(t, &out)

	c := daemon.NewClient("http://"+addr, nil)
	if err := c.PushContext(context.Background(), nil); err != nil { // liveness: the surface is up
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/ingest", "application/json",
		strings.NewReader(`{"updates":[[3,5],[9,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	before, err := c.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}

	// kill -INT: drain and checkpoint. The interval is an hour, so the
	// checkpoint on disk can only come from the shutdown path.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d, stderr: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain after SIGINT")
	}
	if !strings.Contains(out.String(), "final checkpoint written") || !strings.Contains(out.String(), "drained") {
		t.Errorf("missing drain/checkpoint banners:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(stateDir, daemon.CheckpointName)); err != nil {
		t.Fatalf("no checkpoint after graceful shutdown: %v", err)
	}

	// Second boot restores it.
	var out2, errb2 syncBuffer
	done2 := make(chan int, 1)
	go func() { done2 <- run(args, &out2, &errb2) }()
	addr2 := listenAddrOf(t, &out2)
	if !strings.Contains(out2.String(), "restored checkpoint") {
		t.Errorf("restart did not report a restore:\n%s", out2.String())
	}
	after, err := daemon.NewClient("http://"+addr2, nil).Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if *after.Estimate != *before.Estimate {
		t.Errorf("estimate after restart %v != before shutdown %v", *after.Estimate, *before.Estimate)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done2:
	case <-time.After(15 * time.Second):
		t.Fatal("second run did not drain after SIGINT")
	}
}

// TestStreamDrainDurability is the kill-and-restart e2e for the binary
// streaming path: a Pusher streams frames at a live gsumd while SIGTERM
// lands mid-session. The contract under test is the ack receipt — every
// update the client holds an ack for must be inside the final
// checkpoint, and nothing may be applied twice. Both directions are
// proven at once by redelivering the unacked suffix to the restarted
// daemon and requiring the estimate to equal a serial estimator fed the
// identical updates: a lost acked frame or a double-applied unacked one
// would each break the equality.
func TestStreamDrainDurability(t *testing.T) {
	stateDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-backend", "onepass", "-f", "x^2",
		"-n", "65536", "-seed", "7", "-state-dir", stateDir, "-checkpoint-every", "1h"}

	// A synthetic in-domain stream long enough that SIGTERM lands while
	// frames are still in flight. The working set stays far below the
	// candidate trackers' capacity — the regime in which estimates are
	// independent of batch boundaries, so serial-vs-daemon equality is
	// exact (see internal/core/merge.go).
	const total = 60000
	updates := make([]stream.Update, total)
	for i := range updates {
		updates[i] = stream.Update{Item: uint64(i*2654435761) % 64, Delta: int64(i%7) - 3}
	}

	var out, errb syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(args, &out, &errb) }()
	addr := listenAddrOf(t, &out)

	c := daemon.NewClient("http://"+addr, nil)
	p, err := c.NewPusher(context.Background(), daemon.PusherConfig{
		MaxBatch: 64, MaxBuffered: 64, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	pushDone := make(chan error, 1)
	go func() { pushDone <- p.Push(updates) }()

	// Let some frames land, then pull the rug.
	for p.Stats().Acked == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d, stderr: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain after SIGTERM")
	}
	<-pushDone
	_ = p.Close()
	st := p.Stats()
	if st.Acked == 0 {
		t.Fatal("no frames acked before the drain")
	}
	if st.Total != st.Acked {
		t.Fatalf("daemon counter %d != acked updates %d: acks are not aligned with applies", st.Total, st.Acked)
	}
	t.Logf("drain cut the session at %d/%d acked updates (%d frames)", st.Acked, total, st.Frames)

	// Restart from the checkpoint and redeliver exactly the unacked
	// suffix — what a real worker would do with its ack cursor.
	var out2, errb2 syncBuffer
	done2 := make(chan int, 1)
	go func() { done2 <- run(args, &out2, &errb2) }()
	addr2 := listenAddrOf(t, &out2)
	if !strings.Contains(out2.String(), "restored checkpoint") {
		t.Fatalf("restart did not restore the checkpoint:\n%s", out2.String())
	}
	c2 := daemon.NewClient("http://"+addr2, nil)
	p2, err := c2.NewPusher(context.Background(), daemon.PusherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Push(updates[st.Acked:]); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}

	serial, err := backend.Open(backend.Spec{Kind: backend.KindOnePass, G: "x^2",
		Options: core.Options{N: 65536, M: 1 << 10, Eps: 0.25, Delta: 0.2, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	serial.UpdateBatch(updates)
	if *got.Estimate != serial.Estimate() {
		t.Fatalf("estimate after drain+restart+redelivery %v != serial %v (acked frames lost or double-applied)",
			*got.Estimate, serial.Estimate())
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done2:
	case <-time.After(15 * time.Second):
		t.Fatal("second run did not drain after SIGTERM")
	}
}

// TestRunRefusesDriftedStateDir: booting over a checkpoint written
// under a different Spec must fail loudly before serving anything.
func TestRunRefusesDriftedStateDir(t *testing.T) {
	stateDir := t.TempDir()
	base := []string{"-addr", "127.0.0.1:0", "-backend", "onepass", "-f", "x^2",
		"-state-dir", stateDir, "-checkpoint-every", "1h"}

	var out, errb syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(append(base, "-seed", "1"), &out, &errb) }()
	listenAddrOf(t, &out)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain after SIGINT")
	}

	var out2, errb2 bytes.Buffer
	if code := run(append(base, "-seed", "2"), &out2, &errb2); code != 1 {
		t.Fatalf("drifted state dir: exit %d, want 1 (stderr: %s)", code, errb2.String())
	}
	if !strings.Contains(errb2.String(), "fingerprint mismatch") {
		t.Errorf("stderr %q does not name the fingerprint mismatch", errb2.String())
	}
}

// TestRunStateDirStartsFresh: an empty state dir is a fresh start, not
// an error.
func TestRunStateDirStartsFresh(t *testing.T) {
	h := stubServe(t)
	var out, errb bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:0", "-state-dir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if *h == nil {
		t.Fatal("serve was not reached")
	}
	if !strings.Contains(out.String(), "starting fresh") {
		t.Errorf("missing fresh-start banner: %q", out.String())
	}
}

// TestRunRejectsBadPullFrom: a malformed -pull-from URL is a fatal
// configuration error.
func TestRunRejectsBadPullFrom(t *testing.T) {
	stubServe(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:0", "-pull-from", "not a url"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "base URL") {
		t.Errorf("stderr %q does not explain the bad URL", errb.String())
	}
}

func TestRunHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exit %d, want 0", code)
	}
}

// TestObservabilityEndpoints boots a real gsumd with -pprof and checks
// the operational surface end to end: readiness flips on only after the
// listen banner, liveness and metrics answer, and the profiling
// endpoints exist exactly when the flag asks for them.
func TestObservabilityEndpoints(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-backend", "onepass", "-f", "x^2",
		"-seed", "7", "-pprof"}
	var out, errb syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(args, &out, &errb) }()
	addr := listenAddrOf(t, &out)
	base := "http://" + addr

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d", got)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("readyz after listen banner = %d, want 200", got)
	}
	if got := status("/metrics"); got != http.StatusOK {
		t.Errorf("metrics = %d", got)
	}
	// gsumd_ready comes from the same gauge /readyz consults.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "gsumd_ready 1") {
		t.Errorf("metrics scrape lacks gsumd_ready 1")
	}
	if got := status("/debug/pprof/cmdline"); got != http.StatusOK {
		t.Errorf("pprof cmdline with -pprof = %d, want 200", got)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d, stderr: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain after SIGINT")
	}

	// Without the flag the profiling surface must not exist.
	var out2, errb2 syncBuffer
	done2 := make(chan int, 1)
	go func() {
		done2 <- run([]string{"-addr", "127.0.0.1:0", "-backend", "onepass", "-f", "x^2"}, &out2, &errb2)
	}()
	addr2 := listenAddrOf(t, &out2)
	resp2, err := http.Get("http://" + addr2 + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Errorf("pprof served without -pprof (status %d)", resp2.StatusCode)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done2:
	case <-time.After(15 * time.Second):
		t.Fatal("second run did not drain after SIGINT")
	}
}
