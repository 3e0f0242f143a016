package daemon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/wire"
)

// streamServer spins up one daemon on a real listener (the stream path
// needs a hijackable connection, which httptest provides) and returns
// both halves.
func streamServer(t testing.TB, spec backend.Spec) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, nil)
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
		MaxBatch: maxBatch, MaxBuffered: maxBatch, MaxInFlight: 1})
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
		MaxBatch: 64, MaxBuffered: 64, MaxInFlight: 1})
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
	if _, err := c.NewPusher(context.Background(), PusherConfig{}); err == nil {
		t.Fatal("NewPusher succeeded against a draining daemon")
	}
}

// TestStreamDrainNudgeReachesAnIdleSession lands a drain while an idle
// session's loop stands between reading the draining flag and arming its
// idle deadline (the beforeArm hook holds it there until the drain has
// begun, and long enough for a drain that could get in to nudge). The
// nudge must not be overwritten by the deadline: the draining ack arrives,
// and the drain returns, long before the idle timeout.
func TestStreamDrainNudgeReachesAnIdleSession(t *testing.T) {
	const idle = 5 * time.Second
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	srv, c := streamServer(t, spec)
	srv.streams.idleTimeout = idle
	drained := make(chan error, 1)
	var once sync.Once
	srv.streams.beforeArm = func() {
		once.Do(func() {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 2*idle)
				defer cancel()
				drained <- srv.DrainStreams(ctx)
			}()
			for !srv.draining.Load() {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond)
		})
	}
	p, err := c.NewPusher(context.Background(), PusherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	limit := time.After(idle / 5)
	select {
	case <-p.readerEnd:
	case <-limit:
		t.Fatalf("no draining ack %v into the drain: the nudge was lost to the %v idle deadline", idle/5, idle)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-limit:
		t.Fatalf("the drain still waits %v in, after the session's draining ack", idle/5)
	}
}

// TestStreamFingerprintDrift proves the stream path keeps the config-
// drift guarantee: frames stamped with another Spec's fingerprint are
// rejected with an error ack, and nothing is applied.
func TestStreamFingerprintDrift(t *testing.T) {
	s := testStream(17)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	srv, c := streamServer(t, spec)

	p, err := c.NewPusher(context.Background(), PusherConfig{MaxBatch: 128})
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
	p, err := c.NewPusher(context.Background(), PusherConfig{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One update a frame: frames 1 and 2 are applied, frame 3 refused. The
	// error ack names the last frame applied, so the error must not call
	// frame 2 the refused one.
	if err := p.Push([]stream.Update{{Item: 1, Delta: 1}, {Item: 2, Delta: 1}, {Item: 1 << 62, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	err = p.Close()
	if err == nil || !strings.Contains(err.Error(), "frame 3") || !strings.Contains(err.Error(), "domain") {
		t.Fatalf("out-of-domain push: got %v, want the daemon's frame 3 domain error", err)
	}
	if strings.Contains(err.Error(), "rejected frame 2") {
		t.Fatalf("out-of-domain push: %v calls the applied frame 2 rejected", err)
	}
}

// TestStreamRefusalAckSurvivesUnreadFrames: a raw client writes 16
// accepted one-update frames, a refused one (an item outside the domain)
// and about 1 MB of further frames before it reads anything. The daemon
// stops applying at the refusal with those frames unread; a close then
// is answered with a reset, which discarded the error ack in 14 of 20
// runs. Half-closed and drained, the session hands the client its reason
// in every run.
func TestStreamRefusalAckSurvivesUnreadFrames(t *testing.T) {
	const ahead = 16
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	srv, c := streamServer(t, spec)
	var frames []byte
	for seq := uint64(1); seq <= ahead; seq++ {
		frames = wire.AppendFramedIngest(frames, srv.fp, seq, []stream.Update{{Item: seq, Delta: 1}})
	}
	frames = wire.AppendFramedIngest(frames, srv.fp, ahead+1, []stream.Update{{Item: 1 << 62, Delta: 1}})
	more := wire.AppendFramedIngest(nil, srv.fp, ahead+2, randomBatch(util.NewSplitMix64(41), DefaultPushBatch))
	for refused := len(frames); len(frames)-refused < 1<<20; {
		frames = append(frames, more...)
	}
	for run := 0; run < 20; run++ {
		sc, err := c.dialStream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = sc.conn.Write(frames) // a reset fails it
		_ = sc.conn.(interface{ CloseWrite() error }).CloseWrite()
		var reason string
		var buf []byte
		for seq := uint64(1); reason == ""; seq++ {
			payload, err := wire.ReadFrameInto(sc.br, buf, wire.MaxIngestFrameBytes)
			if err != nil {
				t.Fatalf("run %d: ack %d: %v, want the daemon's reason", run, seq, err)
			}
			buf = payload
			ack, err := wire.UnmarshalIngestAck(payload, srv.fp)
			if err != nil {
				t.Fatal(err)
			}
			if ack.Status != wire.IngestAckOK {
				reason = ack.Msg
			}
		}
		_ = sc.conn.Close()
		if !strings.Contains(reason, "domain") {
			t.Fatalf("run %d: reason %q, want the domain refusal", run, reason)
		}
	}
}

// TestPusherFlushByAge: a partial batch must not sit in the buffer past
// FlushEvery even with no further pushes.
func TestPusherFlushByAge(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	_, c := streamServer(t, spec)
	p, err := c.NewPusher(context.Background(), PusherConfig{
		MaxBatch: 1 << 20, FlushEvery: 10 * time.Millisecond})
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
		MaxBatch: 32, MaxBuffered: 32, MaxInFlight: 1})
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
		if err := srv.IngestBatch(s.Updates()); err != nil {
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
		"json":      func(_ *Server, c *Client) error { return postIngest(context.Background(), c, poison) },
		"inprocess": func(srv *Server, _ *Client) error { return srv.IngestBatch(poison) },
		"stream": func(_ *Server, c *Client) error {
			p, err := c.NewPusher(context.Background(), PusherConfig{})
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

// TestDialAddr: a base URL without a port dials port 80, and an IPv6
// literal keeps its brackets either way, so http://[::1] dials [::1]:80
// rather than failing with "missing port in address".
func TestDialAddr(t *testing.T) {
	for base, want := range map[string]string{
		"http://h":          "h:80",
		"http://h:7600":     "h:7600",
		"http://[::1]":      "[::1]:80",
		"http://[::1]:7600": "[::1]:7600",
	} {
		u, err := url.Parse(base)
		if err != nil {
			t.Fatal(err)
		}
		if got := dialAddr(u); got != want {
			t.Errorf("%s dials %q, want %q", base, got, want)
		}
	}
}

// panicOn is an estimator that panics when a batch carries item.
type panicOn struct {
	backend.Estimator
	item uint64
}

func (p panicOn) UpdateBatch(batch []stream.Update) {
	for _, u := range batch {
		if u.Item == p.item {
			panic(fmt.Sprintf("poisoned item %d", u.Item))
		}
	}
	p.Estimator.UpdateBatch(batch)
}

// TestStreamPanicFailsTheSessionOnly: a panic while applying a frame runs
// on the stream's own goroutine, where net/http recovers nothing. It must
// fail that session with the panic's message, counted as a rejected
// frame, and leave the daemon serving: /v1/config answers and another
// stream still ingests.
func TestStreamPanicFailsTheSessionOnly(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	srv, c := streamServer(t, spec)
	srv.est = panicOn{Estimator: srv.est, item: 13}
	ctx := context.Background()

	p, err := c.NewPusher(ctx, PusherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push([]stream.Update{{Item: 12, Delta: 1}, {Item: 13, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil || !strings.Contains(err.Error(), "poisoned item 13") {
		t.Fatalf("a frame that panics: Close = %v, want the panic's message", err)
	}
	if got := srv.obs.streamRejects.Value(); got != 1 {
		t.Errorf("gsumd_stream_rejected_frames_total = %d after the panic, want 1", got)
	}

	if _, err := c.ConfigContext(ctx); err != nil {
		t.Fatalf("/v1/config after a stream's panic: %v", err)
	}
	p, err = c.NewPusher(ctx, PusherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.ConfigContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push([]stream.Update{{Item: 1, Delta: 2}, {Item: 2, Delta: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("a second stream after the panic: %v", err)
	}
	after, err := c.ConfigContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Ingested != before.Ingested+2 {
		t.Errorf("the second stream ingested %d updates, want 2", after.Ingested-before.Ingested)
	}
}
