package daemon

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"
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

// TestClientTimesOutOnHungServer: a POST (CheckSpec) and a GET
// (Snapshot) against a stalled daemon fail within the configured timeout
// instead of blocking forever.
func TestClientTimesOutOnHungServer(t *testing.T) {
	ts := stalledServer(t)
	c := NewClient(ts.URL, &http.Client{Timeout: 100 * time.Millisecond})
	start := time.Now()
	if err := c.CheckSpecContext(context.Background(), 42); err == nil {
		t.Error("CheckSpec against a stalled daemon returned nil")
	}
	if _, err := c.Snapshot(); err == nil {
		t.Error("Snapshot against a stalled daemon returned nil")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("two stalled calls took %v; timeouts are not being applied", elapsed)
	}
}

// TestPullFromDeadWorkerFailsFastWithZeroMerges is the acceptance
// criterion verbatim: one hung worker in the fleet fails the whole pull
// within the configured timeout, and the coordinator performs zero
// merges — not even from the healthy worker.
func TestPullFromDeadWorkerFailsFastWithZeroMerges(t *testing.T) {
	spec := onePassSpec(42)
	s := testStream(29)
	mkDaemon := func() (*Server, *httptest.Server) {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}
	goodSrv, good := mkDaemon()
	_, coord := mkDaemon()
	hung := stalledServer(t)
	if err := goodSrv.IngestBatch(s.Updates()); err != nil {
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

// TestClientReusesConnections: every response, a 200 or an error, is
// drained before close, so the keep-alive connection goes back to the pool
// and the next request rides it. Asserted via httptrace, which reports per
// request whether the connection was reused.
func TestClientReusesConnections(t *testing.T) {
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

	var reused bool
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	})
	for i := 0; i < 3; i++ {
		if err := c.CheckSpecContext(ctx, srv.fp); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !reused {
			t.Fatalf("request %d dialed a new connection; response bodies are not being drained", i+1)
		}
	}

	// The non-200 path must reuse too: decodeError also drains.
	if err := c.CheckSpecContext(ctx, srv.fp+1); err == nil {
		t.Fatal("a drifted fingerprint passed the handshake")
	}
	if err := c.CheckSpecContext(ctx, srv.fp); err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("a request after an error response dialed a new connection; error bodies are not being drained")
	}
}
