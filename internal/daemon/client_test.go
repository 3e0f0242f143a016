package daemon

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/stream"
)

// TestNewClientDefaultTimeout: a nil http.Client must not mean "no
// timeout" — that is exactly the hang the self-healing loops cannot
// afford — and a caller-supplied timeout-less client still gets a
// bounded per-request deadline for the pull loop.
func TestNewClientDefaultTimeout(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", nil)
	if c.hc == http.DefaultClient {
		t.Fatal("nil http.Client resolved to http.DefaultClient (unbounded)")
	}
	if c.hc.Timeout != DefaultTimeout {
		t.Errorf("default client timeout %v, want %v", c.hc.Timeout, DefaultTimeout)
	}
	if c.timeout != DefaultTimeout {
		t.Errorf("per-request deadline %v, want %v", c.timeout, DefaultTimeout)
	}
	custom := NewClient("http://127.0.0.1:1", &http.Client{})
	if custom.timeout != DefaultTimeout {
		t.Errorf("timeout-less custom client: per-request deadline %v, want %v",
			custom.timeout, DefaultTimeout)
	}
	tuned := NewClient("http://127.0.0.1:1", &http.Client{Timeout: time.Second})
	if tuned.timeout != time.Second {
		t.Errorf("tuned client: per-request deadline %v, want 1s", tuned.timeout)
	}
}

// stalledServer answers nothing until the test ends — the "hung worker"
// every timeout test needs.
func stalledServer(t *testing.T) *httptest.Server {
	t.Helper()
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	t.Cleanup(func() { close(block); ts.Close() })
	return ts
}

// TestClientTimesOutOnHungServer: Push and CheckSpec against a stalled
// daemon fail within the configured timeout instead of blocking
// forever.
func TestClientTimesOutOnHungServer(t *testing.T) {
	ts := stalledServer(t)
	c := NewClient(ts.URL, &http.Client{Timeout: 100 * time.Millisecond})
	start := time.Now()
	if err := c.PushContext(context.Background(), []stream.Update{{Item: 1, Delta: 1}}); err == nil {
		t.Error("Push against a stalled daemon returned nil")
	}
	if err := c.CheckSpecContext(context.Background(), 42); err == nil {
		t.Error("CheckSpec against a stalled daemon returned nil")
	}
	if _, err := c.Snapshot(); err == nil {
		t.Error("Snapshot against a stalled daemon returned nil")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("three stalled calls took %v; timeouts are not being applied", elapsed)
	}
}

// TestPullFromDeadWorkerFailsFastWithZeroMerges is the acceptance
// criterion verbatim: one hung worker in the fleet fails the whole pull
// within the configured timeout, and the coordinator performs zero
// merges — not even from the healthy worker.
func TestPullFromDeadWorkerFailsFastWithZeroMerges(t *testing.T) {
	spec := onePassSpec(42)
	s := testStream(29)
	mkDaemon := func() *httptest.Server {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	good, coord := mkDaemon(), mkDaemon()
	hung := stalledServer(t)
	if err := NewClient(good.URL, nil).PushContext(context.Background(), s.Updates()); err != nil {
		t.Fatal(err)
	}

	cc := NewClient(coord.URL, &http.Client{Timeout: 200 * time.Millisecond})
	start := time.Now()
	err := cc.PullFromContext(context.Background(), []string{good.URL, hung.URL})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("PullFrom with a hung worker returned nil")
	}
	if !strings.Contains(err.Error(), hung.URL) {
		t.Errorf("error %v does not name the hung worker", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("PullFrom took %v against a hung worker; the deadline is not applied per request", elapsed)
	}

	// Zero merges: the handshake phase walks every worker before any
	// snapshot ships, so the healthy worker's data must not have landed.
	info, err := NewClient(coord.URL, nil).ConfigContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewClient(coord.URL, nil).Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ingested != 0 || *got.Estimate != 0 {
		t.Errorf("coordinator merged despite the dead worker: ingested=%d estimate=%v",
			info.Ingested, *got.Estimate)
	}
}

// TestOversizeSnapshotRejected: a snapshot body larger than the cap is
// refused whole, not truncated into a corrupt partial payload.
func TestOversizeSnapshotRejected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = io.CopyN(w, zeroReader{}, maxBodyBytes+1)
	}))
	t.Cleanup(ts.Close)
	_, err := NewClient(ts.URL, nil).Snapshot()
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversize snapshot: got %v, want an 'exceeds' error", err)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestPushReusesConnections: successful responses are drained before
// close, so the keep-alive connection goes back to the pool and the
// second and third push ride the same TCP connection. Asserted via
// httptrace, which reports per-request whether the connection was
// reused.
func TestPushReusesConnections(t *testing.T) {
	srv, err := NewServer(onePassSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// A fresh transport isolates this test's connection pool.
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c := NewClient(ts.URL, &http.Client{Transport: tr, Timeout: 5 * time.Second})

	batch := []stream.Update{{Item: 1, Delta: 1}}
	var reused bool
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	})
	for i := 0; i < 3; i++ {
		if err := c.PushContext(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !reused {
			t.Fatalf("push %d dialed a new connection; response bodies are not being drained", i+1)
		}
	}

	// The non-200 path must reuse too: decodeError also drains.
	if err := c.PushContext(ctx, []stream.Update{{Item: 1 << 40, Delta: 1}}); err == nil {
		t.Fatal("out-of-domain push succeeded")
	}
	if err := c.PushContext(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("push after an error response dialed a new connection; error bodies are not being drained")
	}
}

// TestPushRejectsItemsBeyondInt64 is the wrap regression test: item IDs
// at and past 2^63 must be refused by the client with a clear error
// (never silently sent as negative numbers), the server must explain a
// negative item in wrap terms, and the largest representable ID —
// 2^63-1 — must flow end to end.
func TestPushRejectsItemsBeyondInt64(t *testing.T) {
	// A domain big enough that 2^63-1 is a valid item.
	spec := backend.Spec{Kind: backend.KindCountSketch,
		Options: core.Options{N: math.MaxUint64, Seed: 3}, Rows: 3, Buckets: 64}
	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)

	// Client-side: 2^63 and above never reach the wire.
	for _, item := range []uint64{1 << 63, math.MaxUint64} {
		err := c.PushContext(context.Background(), []stream.Update{{Item: item, Delta: 1}})
		if err == nil || !strings.Contains(err.Error(), "int64 range") {
			t.Errorf("item %d: got %v, want an int64-range error", item, err)
		}
	}
	info, err := c.ConfigContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Ingested != 0 {
		t.Errorf("rejected pushes still ingested %d updates", info.Ingested)
	}

	// Boundary: 2^63-1 is representable and must be accepted.
	if err := c.PushContext(context.Background(), []stream.Update{{Item: math.MaxInt64, Delta: 2}}); err != nil {
		t.Fatalf("boundary item 2^63-1 rejected: %v", err)
	}
	got, err := c.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if *got.F2 == 0 {
		t.Error("boundary item did not land in the sketch")
	}

	// Server-side: a hand-crafted negative item (what a wrapping client
	// would send) is rejected with the wrap explanation, not misattributed.
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
		bytes.NewReader([]byte(`{"updates":[[-5, 1]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative item: %s, want 400", resp.Status)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if !strings.Contains(string(body), "int64 range") {
		t.Errorf("server error %q does not explain the int64 wrap", body)
	}
}
