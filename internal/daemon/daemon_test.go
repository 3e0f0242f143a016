package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
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

// postIngest posts updates to /v1/ingest as one JSON batch, the body a
// curl user sends.
func postIngest(ctx context.Context, c *Client, updates []stream.Update) error {
	req := IngestRequest{Updates: make([][2]int64, len(updates))}
	for i, u := range updates {
		req.Updates[i] = [2]int64{int64(u.Item), u.Delta}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.postOK(ctx, "/v1/ingest", "application/json", body)
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

// TestPostHocQueryRefusesFunctionsPastTheEnvelope: every kind that answers
// ?g= answers a function its Spec's Options.Envelope covers, bit for bit as
// the in-process EstimateFor, and refuses with a 400 naming both envelopes
// one it does not: summing x^1 and sized for x^2's envelope (H = 3.99 at
// M = 2^10), x^2 is admitted, its envelope the sketch's exactly, and x^3
// (H = 1024) is not.
func TestPostHocQueryRefusesFunctionsPastTheEnvelope(t *testing.T) {
	s := testStream(11)
	inside, err := backend.CatalogFunc("x^2")
	if err != nil {
		t.Fatal(err)
	}
	past, err := backend.CatalogFunc("x^3")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []backend.Spec{
		{Kind: backend.KindOnePass, Options: testOptions(3)},
		{Kind: backend.KindSharded, Options: testOptions(3), Workers: 2},
		windowSpec(3, 8, 2),
	} {
		spec.G, spec.Options.Envelope = "x^1", core.EnvelopeFor(inside, testOptions(3))
		t.Run(string(spec.Kind), func(t *testing.T) {
			srv, c := streamServer(t, spec)
			if err := srv.IngestBatch(s.Updates()); err != nil {
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

	mk := func(spec backend.Spec, updates []stream.Update) *Client {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.IngestBatch(updates); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return NewClient(ts.URL, nil)
	}
	coord, okWorker, badWorker := mk(good, nil), mk(good, s.Updates()), mk(drifted, s.Updates())

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

// postRaw posts body to /v1/ingest of a fresh daemon and returns the
// answer, the daemon's ingest count and its point query of item after it.
func postRaw(t *testing.T, spec backend.Spec, body string, item uint64) (code int, msg string, ingested uint64, freq int64) {
	t.Helper()
	srv, c := streamServer(t, spec)
	resp, err := http.Post(c.Base()+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	srv.locked(func() { ingested, freq = srv.ingests, srv.est.(backend.PointQuerier).EstimateItem(item) })
	return resp.StatusCode, string(b), ingested, freq
}

// TestIngestRejectsOutOfDomainItems: /v1/ingest, the door curl uses,
// takes a JSON batch of [item, delta] pairs whole or not at all, and an
// item at or past the domain's N is refused with a 400 naming the domain.
func TestIngestRejectsOutOfDomainItems(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindCountSketch, Options: core.Options{N: 16, Seed: 1}, Rows: 3, Buckets: 64}
	if code, msg, n, f := postRaw(t, spec, `{"updates":[[15,1],[3,2]]}`, 15); code != http.StatusOK || n != 2 || f != 1 {
		t.Errorf("a batch inside the domain: %d %s, %d updates ingested, item 15 reads %d; want 200, 2 and 1", code, msg, n, f)
	}
	if code, msg, n, _ := postRaw(t, spec, `{"updates":[[3,2],[16,1]]}`, 3); code != http.StatusBadRequest ||
		!strings.Contains(msg, "outside domain") || n != 0 {
		t.Errorf("item N = 16 after a good one: %d %s, %d updates ingested; want a 400 naming the domain and none", code, msg, n)
	}
}

// TestPushRejectsItemsBeyondInt64: /v1/ingest's body carries items as
// int64, so a client that wraps an ID at or past 2^63 sends a negative
// number. The daemon refuses it with a 400 that names the int64 range,
// not the domain, and 2^63-1, the largest ID the body carries, lands.
func TestPushRejectsItemsBeyondInt64(t *testing.T) {
	// A domain big enough that 2^63-1 is a valid item.
	spec := backend.Spec{Kind: backend.KindCountSketch,
		Options: core.Options{N: math.MaxUint64, Seed: 3}, Rows: 3, Buckets: 64}
	if code, msg, _, _ := postRaw(t, spec, `{"updates":[[-5,1]]}`, 0); code != http.StatusBadRequest || !strings.Contains(msg, "int64 range") {
		t.Errorf("a negative item: %d %s, want a 400 naming the int64 range", code, msg)
	}
	if code, msg, _, f := postRaw(t, spec, fmt.Sprintf(`{"updates":[[%d,2]]}`, math.MaxInt64), math.MaxInt64); code != http.StatusOK || f != 2 {
		t.Errorf("boundary item 2^63-1: %d %s, reads %d in the sketch; want 200 and 2", code, msg, f)
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
