package daemon

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/sketch/sketchtest"
	"repro/internal/stream"
	"repro/internal/window"
)

// testStream is a seeded Zipf stream whose distinct-item count stays
// below the candidate trackers' capacity, the regime in which merged and
// serial estimates agree exactly (see internal/core/merge.go).
func testStream(seed uint64) *stream.Stream {
	return stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 90, 1.1)
}

func testOptions(seed uint64) core.Options {
	return core.Options{N: 1 << 12, M: 1 << 10, Eps: 0.25, Seed: seed, Lambda: 1.0 / 16}
}

// cluster spins up two worker daemons and one coordinator daemon with
// identical Specs, pushes disjoint halves of the stream to the workers
// over HTTP, and merges both snapshots into the coordinator.
func cluster(t *testing.T, spec backend.Spec, s *stream.Stream) *Client {
	t.Helper()
	mk := func() *httptest.Server {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	w1, w2, coord := mk(), mk(), mk()

	updates := s.Updates()
	n := len(updates)
	if err := NewClient(w1.URL, nil).PushContext(context.Background(), updates[:n/2]); err != nil {
		t.Fatal(err)
	}
	if err := NewClient(w2.URL, nil).PushContext(context.Background(), updates[n/2:]); err != nil {
		t.Fatal(err)
	}
	cc := NewClient(coord.URL, nil)
	if err := cc.PullFromContext(context.Background(), []string{w1.URL, w2.URL}); err != nil {
		t.Fatal(err)
	}
	return cc
}

// serialEstimator opens the same Spec in-process and feeds it the whole
// stream — the single-machine reference every cluster test compares to.
func serialEstimator(t *testing.T, spec backend.Spec, s *stream.Stream) backend.Estimator {
	t.Helper()
	est, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	est.UpdateBatch(s.Updates())
	return est
}

func TestE2ECountSketchBackend(t *testing.T) {
	s := testStream(3)
	spec := backend.Spec{Kind: backend.KindCountSketch,
		Options: core.Options{N: 1 << 12, M: 1 << 10, Seed: 17}, Rows: 5, Buckets: 1 << 10}
	cc := cluster(t, spec, s)

	serial := serialEstimator(t, spec, s).(backend.PointQuerier)

	for item := range s.Vector() {
		got, err := cc.Estimate(url.Values{"item": {strconv.FormatUint(item, 10)}})
		if err != nil {
			t.Fatal(err)
		}
		if est := int64(*got.Estimate); est != serial.EstimateItem(item) {
			t.Errorf("item %d: daemon estimate %d != serial %d", item, est, serial.EstimateItem(item))
		}
	}
	got, err := cc.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f2 := *got.F2; f2 != serial.EstimateF2() {
		t.Errorf("daemon F2 %.17g != serial %.17g", f2, serial.EstimateF2())
	}
}

func TestE2EHeavyBackend(t *testing.T) {
	s := testStream(5)
	spec := backend.Spec{Kind: backend.KindHeavy, G: "x^2", Options: testOptions(23)}
	cc := cluster(t, spec, s)

	serial := serialEstimator(t, spec, s).(backend.CoverReporter)
	want := serial.Cover()

	got, err := cc.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws := *got.WeightSum; ws != want.WeightSum() {
		t.Errorf("daemon cover weight sum %.17g != serial %.17g", ws, want.WeightSum())
	}
	entries := got.Cover
	if len(entries) != len(want) {
		t.Fatalf("daemon cover has %d entries, serial %d", len(entries), len(want))
	}
	for i, e := range entries {
		if e.Item != want[i].Item {
			t.Errorf("cover[%d] item %d, want %d", i, e.Item, want[i].Item)
		}
	}
}

func TestE2ERecursiveOnePassBackend(t *testing.T) {
	s := testStream(7)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(42)}
	cc := cluster(t, spec, s)

	serial := serialEstimator(t, spec, s)

	got, err := cc.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if est := *got.Estimate; est != serial.Estimate() {
		t.Errorf("daemon g-SUM estimate %.17g != serial %.17g", est, serial.Estimate())
	}
}

// TestE2EUniversalBackendPostHocQueries: the §1.1.1 universal sketch is a
// onepass Spec whose Options.Envelope covers every function it will be
// asked for (x^2's 3.99, x^1's 2, 1(x>0)'s 1 under 4). A 2-worker +
// coordinator cluster answers each ?g= as the in-process EstimateFor
// does, bit for bit.
func TestE2EUniversalBackendPostHocQueries(t *testing.T) {
	s := testStream(9)
	opts := testOptions(31)
	opts.Envelope = 4
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: opts}
	cc := cluster(t, spec, s)

	serial := serialEstimator(t, spec, s).(backend.FuncQuerier)

	for _, name := range []string{"x^2", "x^1", "1(x>0)"} {
		g, err := backend.CatalogFunc(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Estimate(url.Values{"g": {name}})
		if err != nil {
			t.Fatal(err)
		}
		if est := *got.Estimate; est != serial.EstimateFor(g) {
			t.Errorf("%s: daemon estimate %.17g != serial %.17g", name, est, serial.EstimateFor(g))
		}
	}
}

// TestPostHocQueryRefusesFunctionsPastTheEnvelope: every kind that answers
// ?g= answers a function its Spec's Options.Envelope covers, bit for bit as
// the in-process EstimateFor, and refuses with a 400 naming both envelopes
// one it does not: sized for x^2 (H = 3.99 at M = 2^10), x^1 (H = 2) is
// admitted and x^3 (H = 1024) is not.
func TestPostHocQueryRefusesFunctionsPastTheEnvelope(t *testing.T) {
	s := testStream(11)
	inside, err := backend.CatalogFunc("x^1")
	if err != nil {
		t.Fatal(err)
	}
	past, err := backend.CatalogFunc("x^3")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []backend.Spec{
		{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(3)},
		{Kind: backend.KindSharded, G: "x^2", Options: testOptions(3), Workers: 2},
		windowSpec(3, 8, 2),
	} {
		t.Run(string(spec.Kind), func(t *testing.T) {
			srv, c := streamServer(t, spec)
			if err := c.PushContext(context.Background(), s.Updates()); err != nil {
				t.Fatal(err)
			}
			got, err := c.Estimate(url.Values{"g": {inside.Name()}})
			if err != nil {
				t.Fatalf("%s inside the envelope: %v", inside.Name(), err)
			}
			want := serialEstimator(t, spec, s).(backend.FuncQuerier).EstimateFor(inside)
			if got.G != inside.Name() || *got.Estimate != want {
				t.Errorf("?g=%s answered %q %.17g, in-process EstimateFor %.17g", inside.Name(), got.G, *got.Estimate, want)
			}
			sized := srv.Spec().Options.Envelope
			h := core.EnvelopeFor(past, core.Options{M: spec.Options.M})
			_, err = c.Estimate(url.Values{"g": {past.Name()}})
			if err == nil || !strings.Contains(err.Error(), "400") ||
				!strings.Contains(err.Error(), fmt.Sprintf("%g", h)) || !strings.Contains(err.Error(), fmt.Sprintf("%g", sized)) {
				t.Errorf("?g=%s (H = %g) on a sketch sized for %g: %v, want a 400 naming both", past.Name(), h, sized, err)
			}
		})
	}
}

// TestConfigServesSpecAndFingerprint: GET /v1/config returns the
// normalized Spec and the fingerprint the handshake checks.
func TestConfigServesSpecAndFingerprint(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(42)}
	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	info, err := NewClient(ts.URL, nil).ConfigContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != norm.Fingerprint() {
		t.Errorf("served fingerprint %#x != local %#x", info.Fingerprint, norm.Fingerprint())
	}
	if info.Spec.Kind != norm.Kind || info.Spec.Options != norm.Options {
		t.Errorf("served spec %+v != normalized %+v", info.Spec, norm)
	}
	// The served Spec is self-describing: re-fingerprinting it locally
	// reproduces the served fingerprint.
	if info.Spec.Fingerprint() != info.Fingerprint {
		t.Error("served spec does not fingerprint to the served fingerprint")
	}
}

// TestPullFromRejectsSpecMismatchBeforeMerge is the e2e drift guard: a
// worker built from a Spec differing in one field (the seed) is refused
// at the /v1/config handshake with a 409 — before any snapshot is
// pulled or merged — and the coordinator keeps answering from its own
// untouched state.
func TestPullFromRejectsSpecMismatchBeforeMerge(t *testing.T) {
	s := testStream(3)
	good := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(42)}
	drifted := good
	drifted.Options.Seed = 43

	mk := func(spec backend.Spec) *Client {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return NewClient(ts.URL, nil)
	}
	coord, okWorker, badWorker := mk(good), mk(good), mk(drifted)
	if err := okWorker.PushContext(context.Background(), s.Updates()); err != nil {
		t.Fatal(err)
	}
	if err := badWorker.PushContext(context.Background(), s.Updates()); err != nil {
		t.Fatal(err)
	}

	err := coord.PullFromContext(context.Background(), []string{okWorker.base, badWorker.base})
	if err == nil {
		t.Fatal("PullFrom accepted a worker with a drifted Spec")
	}
	if !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Errorf("error %v does not surface the 409 fingerprint handshake", err)
	}

	// The handshake runs before any snapshot moves: even the matching
	// worker's data must NOT have been merged.
	info, err := coord.ConfigContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ingested != 0 || *got.Estimate != 0 {
		t.Errorf("coordinator state changed despite failed handshake: ingested=%d estimate=%v",
			info.Ingested, *got.Estimate)
	}

	// Direct handshake checks: matching fingerprint 200, drifted 409.
	if err := okWorker.CheckSpecContext(context.Background(), good.Fingerprint()); err != nil {
		t.Errorf("matching fingerprint rejected: %v", err)
	}
	if err := badWorker.CheckSpecContext(context.Background(), good.Fingerprint()); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("drifted daemon did not answer 409: %v", err)
	}
}

func TestMergeRejectsMismatchedConfiguration(t *testing.T) {
	mk := func(seed uint64) *Client {
		srv, err := NewServer(backend.Spec{Kind: backend.KindCountSketch,
			Options: core.Options{N: 1 << 10, Seed: seed}, Rows: 5, Buckets: 256})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return NewClient(ts.URL, nil)
	}
	a, b := mk(1), mk(2)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MergeContext(context.Background(), snap); err == nil {
		t.Error("expected merge of a different-seed snapshot to be rejected")
	}
}

func TestIngestRejectsOutOfDomainItems(t *testing.T) {
	srv, err := NewServer(backend.Spec{Kind: backend.KindCountSketch,
		Options: core.Options{N: 16, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	err = NewClient(ts.URL, nil).PushContext(context.Background(), []stream.Update{{Item: 99, Delta: 1}})
	if err == nil {
		t.Error("expected out-of-domain item to be rejected")
	}
}

func TestNewServerValidatesSpec(t *testing.T) {
	if _, err := NewServer(backend.Spec{Kind: "nope", Options: core.Options{N: 4}}); err == nil {
		t.Error("expected unknown kind error")
	}
	// The two-pass protocol needs a stream replay between passes; the
	// HTTP surface cannot drive that, so the daemon must refuse the kind
	// instead of serving a pass-1-only estimate.
	if _, err := NewServer(backend.Spec{Kind: backend.KindTwoPass, G: "x^2",
		Options: core.Options{N: 4}}); err == nil || !strings.Contains(err.Error(), "replay") {
		t.Errorf("twopass kind not refused by the daemon: %v", err)
	}
	if _, err := NewServer(backend.Spec{Kind: backend.KindOnePass, G: "nope",
		Options: core.Options{N: 4}}); err == nil {
		t.Error("expected unknown function error")
	}
	if _, err := NewServer(backend.Spec{Kind: backend.KindCountSketch}); err == nil {
		t.Error("expected zero-domain error")
	}
}

func windowSpec(seed uint64, w uint64, k int) backend.Spec {
	return backend.Spec{Kind: backend.KindWindow, G: "x^2",
		Options: core.Options{N: 1 << 12, M: 1 << 10, Seed: seed, Lambda: 1.0 / 16},
		Window:  window.Config{W: w, K: k}}
}

// windowCluster spins up two window-kind workers and a coordinator,
// drives disjoint halves of a ticked stream through the workers
// (advancing every clock through the same tick sequence), merges, and
// returns the coordinator client.
func windowCluster(t *testing.T, spec backend.Spec, updates []stream.Update, ticks []uint64) *Client {
	t.Helper()
	mk := func() *Client {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return NewClient(ts.URL, nil)
	}
	w1, w2, coord := mk(), mk(), mk()
	last := ticks[len(ticks)-1]
	push := func(c *Client, lo, hi int) {
		for lo < hi {
			run := lo + 1
			for run < hi && ticks[run] == ticks[lo] {
				run++
			}
			if _, err := c.AdvanceContext(context.Background(), ticks[lo]); err != nil {
				t.Fatal(err)
			}
			if err := c.PushContext(context.Background(), updates[lo:run]); err != nil {
				t.Fatal(err)
			}
			lo = run
		}
		if _, err := c.AdvanceContext(context.Background(), last); err != nil {
			t.Fatal(err)
		}
	}
	n := len(updates)
	push(w1, 0, n/2)
	push(w2, n/2, n)
	if _, err := coord.AdvanceContext(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	if err := coord.PullFromContext(context.Background(), []string{w1.base, w2.base}); err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestE2EWindowBackend: the coordinator's windowed estimate equals a
// single-process window estimator fed the whole ticked stream — exactly
// — and reports the clock and stale-tick diagnostics.
func TestE2EWindowBackend(t *testing.T) {
	s := testStream(5)
	updates := s.Updates()
	ticks := make([]uint64, len(updates))
	for i := range ticks {
		ticks[i] = uint64(i) * 32 / uint64(len(updates))
	}
	spec := windowSpec(23, 6, 2)

	est, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := est.(backend.Windowed)
	for i, u := range updates {
		ref.Advance(ticks[i])
		est.Update(u.Item, u.Delta)
	}
	ref.Advance(ticks[len(ticks)-1])

	cc := windowCluster(t, spec, updates, ticks)
	resp, err := cc.Estimate(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if got := *resp.Estimate; got != est.Estimate() {
		t.Fatalf("daemon windowed estimate %v != single-process %v", got, est.Estimate())
	}
	if tick := *resp.Tick; tick != ref.Now() {
		t.Fatalf("daemon clock %v != %d", tick, ref.Now())
	}
	if stale := *resp.StaleTicks; stale != ref.Stale() {
		t.Fatalf("daemon stale %v != %d", stale, ref.Stale())
	}
}

// TestAdvanceEndpoint: past ticks are a no-op, kinds without a clock
// refuse, and the window kind requires a window length.
func TestAdvanceEndpoint(t *testing.T) {
	srv, err := NewServer(backend.Spec{Kind: backend.KindWindow, G: "x^2",
		Options: core.Options{N: 1 << 10, M: 1 << 8, Seed: 1},
		Window:  window.Config{W: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)
	now, err := c.AdvanceContext(context.Background(), 9)
	if err != nil || now != 9 {
		t.Fatalf("advance to 9: now=%d err=%v", now, err)
	}
	now, err = c.AdvanceContext(context.Background(), 3) // past tick: clock must not move backward
	if err != nil || now != 9 {
		t.Fatalf("advance to past tick: now=%d err=%v", now, err)
	}

	// A wall-clock-sized jump completes immediately: window.Advance
	// drops whole panes and never visits the ~10^9 ticks it crosses.
	if now, err := c.AdvanceContext(context.Background(), 1753680000); err != nil || now != 1753680000 {
		t.Fatalf("epoch-seconds jump: now=%d err=%v", now, err)
	}

	plain, err := NewServer(backend.Spec{Kind: backend.KindOnePass, G: "x^2",
		Options: core.Options{N: 1 << 10, M: 1 << 8, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tsp := httptest.NewServer(plain.Handler())
	t.Cleanup(tsp.Close)
	if _, err := NewClient(tsp.URL, nil).AdvanceContext(context.Background(), 1); err == nil {
		t.Fatal("onepass kind accepted /v1/advance")
	}

	if _, err := NewServer(backend.Spec{Kind: backend.KindWindow, G: "x^2",
		Options: core.Options{N: 1 << 10, M: 1 << 8, Seed: 1}}); err == nil {
		t.Fatal("window kind built without a window length")
	}
}

// TestWindowMergeRejectsClockDrift: a coordinator that was not advanced
// to the workers' tick must refuse the snapshot (409 via /v1/merge).
// The Spec fingerprints MATCH here — clock drift is runtime state, not
// configuration, so it is the wire format's boundary check that
// catches it.
func TestWindowMergeRejectsClockDrift(t *testing.T) {
	spec := windowSpec(2, 4, 0)
	mk := func() *Client {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return NewClient(ts.URL, nil)
	}
	worker, coord := mk(), mk()
	if _, err := worker.AdvanceContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	snap, err := worker.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.MergeContext(context.Background(), snap); err == nil {
		t.Fatal("coordinator at tick 0 merged a tick-5 snapshot")
	}
	if _, err := coord.AdvanceContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if err := coord.MergeContext(context.Background(), snap); err != nil {
		t.Fatalf("merge after synchronizing clocks: %v", err)
	}
}

// TestRefusedMergeLeavesTheAggregate: /v1/merge of a well-framed snapshot
// whose deepest level carries one bad row answers 409, and the live
// aggregate is as it was — before layout version 4 the levels above the
// bad row had already been added when the 409 went out.
func TestRefusedMergeLeavesTheAggregate(t *testing.T) {
	spec := onePassSpec(42)
	mk := func(seed uint64) *Client {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		c := NewClient(ts.URL, nil)
		if err := c.PushContext(context.Background(), testStream(seed).Updates()); err != nil {
			t.Fatal(err)
		}
		return c
	}
	worker, coord := mk(3), mk(4)
	snap, err := worker.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before, err := coord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	err = coord.MergeContext(context.Background(), sketchtest.BreakLastRow(t, snap))
	if err == nil || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "wire: row of") {
		t.Errorf("merge of a snapshot with a bad last row: %v, want a 409 naming the row", err)
	}
	after, err := coord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a refused merge changed the live aggregate")
	}
	if err := coord.MergeContext(context.Background(), snap); err != nil {
		t.Errorf("the snapshot the bad one is cut from: %v", err)
	}
}
