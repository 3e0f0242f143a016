package daemon

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/stream"
	"repro/internal/window"
)

// streamServer spins up one daemon on a real listener (the stream path
// needs a hijackable connection, which httptest provides) and returns
// both halves.
func streamServer(t *testing.T, spec backend.Spec) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, nil)
}

// TestStreamPushBitIdentical is the tentpole invariant on the binary
// transport: a stream pushed over /v1/stream yields the exact serial
// estimate — the wire format changes the bytes on the wire, never the
// counters.
func TestStreamPushBitIdentical(t *testing.T) {
	s := testStream(3)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}

	serial, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Process(serial, s); err != nil {
		t.Fatal(err)
	}

	_, c := streamServer(t, spec)
	p, err := c.NewPusher(context.Background(), PusherConfig{Stream: true, MaxBatch: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(s.Updates()); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Acked != uint64(s.Len()) {
		t.Fatalf("acked %d of %d updates", st.Acked, s.Len())
	}
	if st.Total != uint64(s.Len()) {
		t.Fatalf("daemon ingest counter %d, want %d", st.Total, s.Len())
	}
	if st.Frames < 2 {
		t.Fatalf("expected multiple frames at MaxBatch=128 for %d updates, got %d", s.Len(), st.Frames)
	}

	resp, err := c.Estimate(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := resp.Value()
	if !ok {
		t.Fatalf("no estimate in %+v", resp)
	}
	if want := serial.Estimate(); got != want {
		t.Fatalf("stream estimate %v != serial %v", got, want)
	}
}

// TestStreamWindowedBitIdentical repeats the invariant on the window
// kind: Flush-before-Advance keeps the tick stamping exact, so the
// windowed estimate over the stream transport equals the in-process one.
func TestStreamWindowedBitIdentical(t *testing.T) {
	s := testStream(5)
	spec := backend.Spec{Kind: backend.KindWindow, G: "x^2", Options: testOptions(9),
		Window: window.Config{W: 4}}

	serial, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	win := serial.(backend.Windowed)

	_, c := streamServer(t, spec)
	p, err := c.NewPusher(context.Background(), PusherConfig{Stream: true, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}

	// Interleave ticks with update runs on both sides identically.
	updates := s.Updates()
	runs := 8
	for r := 0; r < runs; r++ {
		lo, hi := r*len(updates)/runs, (r+1)*len(updates)/runs
		tick := uint64(r + 1)
		win.Advance(tick)
		serial.UpdateBatch(updates[lo:hi])
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Advance(tick); err != nil {
			t.Fatal(err)
		}
		if err := p.Push(updates[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := c.Estimate(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := resp.Value()
	if !ok {
		t.Fatalf("no estimate in %+v", resp)
	}
	if want := serial.Estimate(); got != want {
		t.Fatalf("windowed stream estimate %v != serial %v", got, want)
	}
}

// TestStreamBackpressure slows the daemon's per-frame apply and checks
// the bounded pipeline end to end: a small queue and in-flight window
// force Push to block (not drop, not error), and everything still
// arrives exactly once.
func TestStreamBackpressure(t *testing.T) {
	s := testStream(11)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	srv, c := streamServer(t, spec)
	srv.streams.applyDelay = 2 * time.Millisecond

	const maxBatch = 32
	p, err := c.NewPusher(context.Background(), PusherConfig{
		Stream: true, MaxBatch: maxBatch, MaxBuffered: maxBatch, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Push(s.Updates()); err != nil {
		t.Fatal(err)
	}
	enqueued := time.Since(start)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Acked != uint64(s.Len()) {
		t.Fatalf("acked %d of %d", st.Acked, s.Len())
	}
	// With queue+window bounding at most ~2 batches of slack, Push had
	// to absorb almost the whole slow-apply schedule: frames*delay minus
	// the slack. If Push returned quickly the queue was unbounded.
	frames := s.Len() / maxBatch
	floor := time.Duration(frames-3) * srv.streams.applyDelay
	if frames > 3 && enqueued < floor {
		t.Fatalf("Push returned in %v; bounded queue against a slow daemon should have blocked >= %v", enqueued, floor)
	}
}

// TestStreamDrainAcksAreDurable drains the daemon mid-session and
// checks the ack contract both ways: the client's acked count equals
// the daemon's applied count exactly, and the unacked remainder is
// reported for redelivery.
func TestStreamDrainAcksAreDurable(t *testing.T) {
	s := testStream(13)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	srv, c := streamServer(t, spec)
	srv.streams.applyDelay = time.Millisecond

	p, err := c.NewPusher(context.Background(), PusherConfig{
		Stream: true, MaxBatch: 64, MaxBuffered: 64, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Feed the stream from a goroutine; drain the daemon mid-flight.
	pushDone := make(chan error, 1)
	go func() { pushDone <- p.Push(s.Updates()) }()
	time.Sleep(20 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.DrainStreams(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-pushDone
	closeErr := p.Close()

	st := p.Stats()
	srv.mu.Lock()
	applied := srv.ingests
	srv.mu.Unlock()
	if st.Acked != applied {
		t.Fatalf("client believes %d updates durable, daemon applied %d", st.Acked, applied)
	}
	if st.Acked < uint64(s.Len()) {
		// Some of the session was cut off: Close must say so and name
		// the drain.
		if closeErr == nil {
			t.Fatalf("drain cut %d updates but Close returned nil", uint64(s.Len())-st.Acked)
		}
		if !errors.Is(closeErr, ErrDraining) {
			t.Fatalf("Close error %v does not wrap ErrDraining", closeErr)
		}
	} else if closeErr != nil {
		t.Fatalf("everything acked, yet Close failed: %v", closeErr)
	}

	// New stream sessions are refused while draining.
	if _, err := c.NewPusher(context.Background(), PusherConfig{Stream: true}); err == nil {
		t.Fatal("NewPusher succeeded against a draining daemon")
	}
}

// TestStreamFingerprintDrift proves the stream path keeps the config-
// drift guarantee: frames stamped with another Spec's fingerprint are
// rejected with an error ack, and nothing is applied.
func TestStreamFingerprintDrift(t *testing.T) {
	s := testStream(17)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	srv, c := streamServer(t, spec)

	p, err := c.NewPusher(context.Background(), PusherConfig{Stream: true, MaxBatch: 128})
	if err != nil {
		t.Fatal(err)
	}
	p.fp++ // drift: stamp frames with a fingerprint the daemon doesn't serve
	err = p.Push(s.Updates())
	if err == nil {
		err = p.Close()
	} else {
		_ = p.Close()
	}
	if err == nil {
		t.Fatal("drifted fingerprint was accepted")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error %v does not mention the fingerprint", err)
	}
	srv.mu.Lock()
	applied := srv.ingests
	srv.mu.Unlock()
	if applied != 0 {
		t.Fatalf("daemon applied %d updates from drifted frames", applied)
	}
}

// TestStreamDomainRejected: out-of-domain items are refused at the
// frame boundary with a useful error, exactly like /v1/ingest.
func TestStreamDomainRejected(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	_, c := streamServer(t, spec)
	p, err := c.NewPusher(context.Background(), PusherConfig{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := []stream.Update{{Item: 1 << 62, Delta: 1}}
	if err := p.Push(bad); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil || !strings.Contains(err.Error(), "domain") {
		t.Fatalf("out-of-domain push: got %v, want domain error", err)
	}
}

// TestPusherJSONTransport runs the same bounded async pipeline over
// plain /v1/ingest POSTs and checks the estimate and the counters.
func TestPusherJSONTransport(t *testing.T) {
	s := testStream(19)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}

	serial, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Process(serial, s); err != nil {
		t.Fatal(err)
	}

	_, c := streamServer(t, spec)
	p, err := c.NewPusher(context.Background(), PusherConfig{MaxBatch: 777})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent producers: the Pusher is the serialization point.
	var wg sync.WaitGroup
	updates := s.Updates()
	half := len(updates) / 2
	for _, part := range [][]stream.Update{updates[:half], updates[half:]} {
		wg.Add(1)
		go func(part []stream.Update) {
			defer wg.Done()
			if err := p.Push(part); err != nil {
				t.Errorf("push: %v", err)
			}
		}(part)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Acked != uint64(s.Len()) {
		t.Fatalf("acked %d of %d", st.Acked, s.Len())
	}

	resp, err := c.Estimate(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := resp.Value()
	if !ok {
		t.Fatalf("no estimate in %+v", resp)
	}
	if want := serial.Estimate(); got != want {
		t.Fatalf("json pusher estimate %v != serial %v", got, want)
	}
}

// TestPusherFlushByAge: a partial batch must not sit in the buffer past
// FlushEvery even with no further pushes.
func TestPusherFlushByAge(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	_, c := streamServer(t, spec)
	p, err := c.NewPusher(context.Background(), PusherConfig{
		Stream: true, MaxBatch: 1 << 20, FlushEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Push([]stream.Update{{Item: 1, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Acked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("partial batch never flushed by age")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPusherContextCancel: canceling the session ctx unblocks a Push
// stuck on a full queue and fails the session with the ctx error.
func TestPusherContextCancel(t *testing.T) {
	s := testStream(23)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	srv, c := streamServer(t, spec)
	srv.streams.applyDelay = 50 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	p, err := c.NewPusher(ctx, PusherConfig{
		Stream: true, MaxBatch: 32, MaxBuffered: 32, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	pushDone := make(chan error, 1)
	go func() { pushDone <- p.Push(s.Updates()) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-pushDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("push after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock Push")
	}
	_ = p.Close()
}

// TestMinInt64DeltaEndToEnd sends the one delta whose magnitude does not
// fit an int64 through each ingest door of a daemon of every kind gsumd
// accepts. It makes the item's frequency — every counter of it, and so
// its estimate — MinInt64, and taking the magnitude of that once
// panicked: on the sketch kinds inside Server.apply, on `exact` inside
// the first /v1/estimate, either way with the state lock held and never
// released, so one update (and one read) wedged the daemon for good. The
// daemon must keep answering /v1/estimate, and a second copy must wrap
// the frequency back to where it was: the answer returns to the one given
// before the item was touched, which for `onepass` is also that of a
// serial estimator that never saw it. The `universal` daemon is the
// §1.1.1 sketch: a onepass daemon summing x^1, sized for x^2's envelope
// and asked for x^2 post hoc.
func TestMinInt64DeltaEndToEnd(t *testing.T) {
	s := testStream(23)
	poison := []stream.Update{{Item: 3000, Delta: math.MinInt64}}
	universal := testOptions(5)
	universal.Envelope = 4
	specs := []struct {
		name string
		spec backend.Spec
	}{
		{"onepass", backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(5)}},
		{"sharded", backend.Spec{Kind: backend.KindSharded, G: "x^2", Options: testOptions(5), Workers: 2}},
		{"universal", backend.Spec{Kind: backend.KindOnePass, G: "x^1", Options: universal}},
		{"window", windowSpec(5, 8, 2)},
		{"countsketch", backend.Spec{Kind: backend.KindCountSketch, Options: testOptions(5), Rows: 5, Buckets: 1 << 10}},
		{"heavy", backend.Spec{Kind: backend.KindHeavy, G: "x^2", Options: testOptions(5)}},
		{"exact", backend.Spec{Kind: backend.KindExact, G: "x^2", Options: testOptions(5)}},
	}
	// check drives one daemon through one door.
	check := func(t *testing.T, name string, spec backend.Spec, ingest func(*Server, *Client) error) {
		srv, c := streamServer(t, spec)
		if err := c.Push(s.Updates()); err != nil {
			t.Fatal(err)
		}
		// The kind's scalar answer: the estimate (post hoc for x^2 on
		// `universal`), the F2 of `countsketch`, the cover weight of `heavy`.
		estimate := func() float64 {
			t.Helper()
			// A daemon that panicked under its state lock still holds it;
			// bound the wait so that shows as a failure, not a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			q := url.Values{}
			if name == "universal" {
				q.Set("g", "x^2")
			}
			resp, err := c.EstimateContext(ctx, q)
			if err != nil {
				t.Fatalf("estimate: %v", err)
			}
			for _, v := range []*float64{resp.Estimate, resp.F2, resp.WeightSum} {
				if v != nil {
					return *v
				}
			}
			t.Fatalf("no estimate in %+v", resp)
			return 0
		}
		want := estimate()
		if name == "onepass" {
			if serial := serialEstimator(t, spec, s).Estimate(); want != serial {
				t.Fatalf("estimate %v before the item is touched, serial %v", want, serial)
			}
		}
		if err := ingest(srv, c); err != nil {
			t.Fatalf("first MinInt64: %v", err)
		}
		if got := estimate(); math.IsNaN(got) {
			t.Fatalf("estimate %v while the item holds MinInt64", got)
		}
		if err := ingest(srv, c); err != nil {
			t.Fatalf("second MinInt64: %v", err)
		}
		if got := estimate(); got != want {
			t.Fatalf("estimate %v after the frequency wrapped back, want %v", got, want)
		}
	}
	for name, ingest := range map[string]func(*Server, *Client) error{
		"json":      func(_ *Server, c *Client) error { return c.Push(poison) },
		"inprocess": func(srv *Server, _ *Client) error { return srv.IngestBatch(poison) },
		"stream": func(_ *Server, c *Client) error {
			p, err := c.NewPusher(context.Background(), PusherConfig{Stream: true})
			if err != nil {
				return err
			}
			if err := p.Push(poison); err != nil {
				return err
			}
			return p.Close()
		},
	} {
		t.Run(name, func(t *testing.T) {
			for _, tc := range specs {
				t.Run(tc.name, func(t *testing.T) { check(t, tc.name, tc.spec, ingest) })
			}
		})
	}
}
