package daemon

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/window"
)

// scrape fetches and parses a daemon's /metrics over HTTP — the same
// path an operator's Prometheus would take.
func scrape(t *testing.T, base string) *metrics.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	sc, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func mustValue(t *testing.T, sc *metrics.Scrape, name string, labels ...metrics.Label) float64 {
	t.Helper()
	v, ok := sc.Value(name, labels...)
	if !ok {
		t.Fatalf("metric %s%v missing or ambiguous", name, labels)
	}
	return v
}

// TestMetricsEndpointCountsIngest pins the contract the soak harness
// depends on: ingest totals per transport, the batch-size histogram,
// and the estimate/space gauges are all derivable from one scrape.
func TestMetricsEndpointCountsIngest(t *testing.T) {
	s := testStream(11)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(4)}
	srv, c := streamServer(t, spec)

	if err := c.Push(s.Updates()[:100]); err != nil {
		t.Fatal(err)
	}
	if err := srv.IngestBatch(s.Updates()[100:150]); err != nil {
		t.Fatal(err)
	}
	p, err := c.NewPusher(context.Background(), PusherConfig{Stream: true, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(s.Updates()[150:406]); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	sc := scrape(t, c.Base())
	jsonL := metrics.Label{Key: "transport", Value: "json"}
	inprocL := metrics.Label{Key: "transport", Value: "inprocess"}
	streamL := metrics.Label{Key: "transport", Value: "stream"}
	if v := mustValue(t, sc, "gsumd_ingest_updates_total", jsonL); v != 100 {
		t.Fatalf("json updates = %v, want 100", v)
	}
	if v := mustValue(t, sc, "gsumd_ingest_updates_total", inprocL); v != 50 {
		t.Fatalf("inprocess updates = %v, want 50", v)
	}
	if v := mustValue(t, sc, "gsumd_ingest_updates_total", streamL); v != 256 {
		t.Fatalf("stream updates = %v, want 256", v)
	}
	// Acks are durability receipts: after a clean Close every applied
	// stream update has been acked — the soak harness's first invariant.
	if acked := mustValue(t, sc, "gsumd_stream_acked_updates_total"); acked != 256 {
		t.Fatalf("acked stream updates = %v, want 256", acked)
	}
	if frames := mustValue(t, sc, "gsumd_stream_acked_frames_total"); frames != 4 {
		t.Fatalf("acked frames = %v, want 4 (256 updates at MaxBatch 64)", frames)
	}
	if v := mustValue(t, sc, "gsumd_ingested_updates"); v != 406 {
		t.Fatalf("ingest counter gauge = %v, want 406", v)
	}
	if v := mustValue(t, sc, "gsumd_ingest_batch_size_count"); v < 3 {
		t.Fatalf("batch size histogram count = %v, want >= 3", v)
	}
	// The server-side loop notices the close (EOF) asynchronously after
	// the client's Close returns, so the live-connection gauge drains
	// shortly after rather than instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := mustValue(t, sc, "gsumd_stream_connections"); v == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("live stream connections = %v, want 0 after Close", v)
		}
		time.Sleep(10 * time.Millisecond)
		sc = scrape(t, c.Base())
	}
	if v := mustValue(t, sc, "gsumd_stream_connections_total"); v != 1 {
		t.Fatalf("total stream connections = %v, want 1", v)
	}
	if v := mustValue(t, sc, "gsumd_goroutines"); v <= 0 {
		t.Fatalf("goroutine gauge = %v", v)
	}
	if v := mustValue(t, sc, "gsumd_space_bytes"); v <= 0 {
		t.Fatalf("space gauge = %v", v)
	}

	// The estimate gauge must match what /v1/estimate answers.
	resp, err := c.Estimate(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := resp.Value()
	if v := mustValue(t, sc, "gsumd_estimate"); v != want {
		t.Fatalf("estimate gauge = %v, /v1/estimate = %v", v, want)
	}
}

// TestMetricsEstimateLatencyObserved: querying populates the handler
// latency histograms.
func TestMetricsLatencyHistogramsPopulated(t *testing.T) {
	s := testStream(13)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(6)}
	cc := cluster(t, spec, s)
	sc := scrape(t, cc.Base())
	if v := mustValue(t, sc, "gsumd_merge_seconds_count"); v != 2 {
		t.Fatalf("merge histogram count = %v, want 2 (two workers pulled)", v)
	}
	if _, err := cc.Estimate(url.Values{}); err != nil {
		t.Fatal(err)
	}
	sc = scrape(t, cc.Base())
	if v := mustValue(t, sc, "gsumd_estimate_seconds_count"); v < 1 {
		t.Fatalf("estimate histogram count = %v, want >= 1", v)
	}
}

// TestWindowMetricsGauges: the window kind exposes its clock and
// realized staleness as gauges.
func TestWindowMetricsGauges(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindWindow, G: "x^2", Options: testOptions(8),
		Window: window.Config{W: 4}}
	_, c := streamServer(t, spec)
	if _, err := c.Advance(9); err != nil {
		t.Fatal(err)
	}
	sc := scrape(t, c.Base())
	if v := mustValue(t, sc, "gsumd_window_tick"); v != 9 {
		t.Fatalf("window tick gauge = %v, want 9", v)
	}
	if !sc.Has("gsumd_window_stale_ticks") {
		t.Fatal("no stale-ticks gauge")
	}
	if v := mustValue(t, sc, "gsumd_advance_seconds_count"); v != 1 {
		t.Fatalf("advance histogram count = %v, want 1", v)
	}
}

// TestHotpathMetricsGauges: a daemon on the sharded kind exposes its
// shard count, and a daemon on any other kind does not.
func TestHotpathMetricsGauges(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindSharded, G: "x^2", Workers: 2, Options: testOptions(12)}
	srv, c := streamServer(t, spec)
	s := testStream(12)
	if err := srv.IngestBatch(s.Updates()[:100]); err != nil {
		t.Fatal(err)
	}
	sc := scrape(t, c.Base())
	if v := mustValue(t, sc, "gsumd_hotpath_shards"); v != 2 {
		t.Fatalf("shards gauge = %v, want 2", v)
	}

	plain := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(12)}
	_, pc := streamServer(t, plain)
	if scrape(t, pc.Base()).Has("gsumd_hotpath_shards") {
		t.Fatal("onepass daemon exposes hotpath gauges")
	}
}

// TestHealthzReadyzLifecycle pins the readiness contract: healthz is
// liveness (always 200), readyz flips 503 -> 200 with SetReady and back
// to 503 once the drain begins.
func TestHealthzReadyzLifecycle(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(10)}
	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before ready = %d", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady = %d, want 503", got)
	}
	sc := scrape(t, ts.URL)
	if v := mustValue(t, sc, "gsumd_ready"); v != 0 {
		t.Fatalf("ready gauge before SetReady = %v", v)
	}

	srv.SetReady(true)
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after SetReady = %d, want 200", got)
	}
	sc = scrape(t, ts.URL)
	if v := mustValue(t, sc, "gsumd_ready"); v != 1 {
		t.Fatalf("ready gauge after SetReady = %v", v)
	}

	// Draining trumps readiness: a load balancer must stop routing the
	// moment the drain begins, even though healthz stays 200.
	if err := srv.DrainStreams(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining = %d", got)
	}
}

// TestCheckpointMetrics: a checkpoint write populates duration, size,
// and result counters.
func TestCheckpointMetrics(t *testing.T) {
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(12)}
	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/" + CheckpointName
	if err := srv.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sc := scrape(t, ts.URL)
	okL := metrics.Label{Key: "result", Value: "ok"}
	if v := mustValue(t, sc, "gsumd_checkpoint_writes_total", okL); v != 1 {
		t.Fatalf("checkpoint ok counter = %v, want 1", v)
	}
	if v := mustValue(t, sc, "gsumd_checkpoint_bytes"); v <= 0 {
		t.Fatalf("checkpoint bytes gauge = %v", v)
	}
	if v := mustValue(t, sc, "gsumd_checkpoint_seconds_count"); v != 1 {
		t.Fatalf("checkpoint histogram count = %v, want 1", v)
	}
	// A failed write (unwritable directory) lands on the error counter.
	if err := srv.WriteCheckpoint("/nonexistent-dir/nope/" + CheckpointName); err == nil {
		t.Fatal("expected write into a missing directory to fail")
	}
	sc = scrape(t, ts.URL)
	errL := metrics.Label{Key: "result", Value: "error"}
	if v := mustValue(t, sc, "gsumd_checkpoint_writes_total", errL); v != 1 {
		t.Fatalf("checkpoint error counter = %v, want 1", v)
	}
}

// TestPusherMetrics: a Pusher registered against a client-side registry
// exposes queue depth, in-flight frames, and flushes by cause.
func TestPusherMetrics(t *testing.T) {
	s := testStream(17)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(14)}
	_, c := streamServer(t, spec)
	reg := metrics.New()
	p, err := c.NewPusher(context.Background(), PusherConfig{
		Stream: true, MaxBatch: 64,
		Metrics: reg, Labels: []metrics.Label{{Key: "worker", Value: "w0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(s.Updates()[:200]); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	wL := metrics.Label{Key: "worker", Value: "w0"}
	if v := mustValue(t, sc, "gsum_pusher_acked_updates", wL); v != 200 {
		t.Fatalf("acked gauge = %v, want 200", v)
	}
	if v := mustValue(t, sc, "gsum_pusher_queue_depth", wL); v != 0 {
		t.Fatalf("queue depth after Close = %v, want 0", v)
	}
	if v := mustValue(t, sc, "gsum_pusher_inflight_frames", wL); v != 0 {
		t.Fatalf("in-flight after Close = %v, want 0", v)
	}
	// 200 updates at MaxBatch 64: three size flushes plus one final
	// drain of the 8-update remainder.
	st := p.Stats()
	if st.FlushSize != 3 {
		t.Fatalf("size flushes = %d, want 3 (stats %+v)", st.FlushSize, st)
	}
	if st.FlushRequest+st.FlushClose != 1 {
		t.Fatalf("final partial batch should flush by request/close once, stats %+v", st)
	}
	sizeL := metrics.Label{Key: "cause", Value: "size"}
	if v := mustValue(t, sc, "gsum_pusher_flushes", wL, sizeL); v != 3 {
		t.Fatalf("size-flush gauge = %v, want 3", v)
	}
}

// TestSketchDepthIsObservable: the sizing the Spec resolved to — the depth
// Options.Levels = 0 stands for, and every level's rows, buckets and
// tracker capacity as heavy.dims sized them — and the assumption the depth
// rests on — the deepest level tracking fewer candidates than it can, i.e.
// all of its sub-universe — are on /v1/config and /metrics of every kind
// that is one recursive stack, read from whatever estimator the daemon
// holds now (a restore swaps it), and absent from a kind that is not.
func TestSketchDepthIsObservable(t *testing.T) {
	// Trackers of 2H/(λ/3) + 1 = 385 over N = 2^12: ⌈log2(4096/385)⌉ + 1 = 5.
	// ⌈2 ln(1/(δ/2))⌉ = 5 rows of 16H/(λ/3) = 3072 buckets, rounded up.
	const levels, capacity, rows, buckets = 5, 385, 5, 4096
	whole := make([]stream.Update, 1<<12)
	for i := range whole {
		whole[i] = stream.Update{Item: uint64(i), Delta: 1}
	}
	// The third is the §1.1.1 universal sketch: onepass summing x^1, sized
	// for an envelope of 4, which x^2's 3.99 at this M sizes alike.
	universal := testOptions(4)
	universal.Envelope = 4
	for _, spec := range []backend.Spec{
		{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(4)},
		{Kind: backend.KindSharded, G: "x^2", Options: testOptions(4), Workers: 2},
		{Kind: backend.KindOnePass, G: "x^1", Options: universal},
	} {
		srv, c := streamServer(t, spec)
		info, err := c.Config()
		if err != nil {
			t.Fatal(err)
		}
		if info.Spec.Options.Levels != 0 || info.Levels != levels {
			t.Errorf("%s: /v1/config shows Spec levels %d resolved to %d, want 0 resolved to %d", spec.Kind, info.Spec.Options.Levels, info.Levels, levels)
		}
		sc := scrape(t, c.Base())
		if info.Rows != rows || info.Buckets != buckets || info.Tracker != capacity ||
			mustValue(t, sc, "gsumd_sketch_rows") != rows || mustValue(t, sc, "gsumd_sketch_buckets") != buckets {
			t.Errorf("%s: /v1/config shows %d rows of %d buckets over a tracker of %d, /metrics %v of %v; want %d of %d over %d on both",
				spec.Kind, info.Rows, info.Buckets, info.Tracker, mustValue(t, sc, "gsumd_sketch_rows"), mustValue(t, sc, "gsumd_sketch_buckets"), rows, buckets, capacity)
		}
		if l, tr, cp := mustValue(t, sc, "gsumd_sketch_levels"), mustValue(t, sc, "gsumd_sketch_deepest_tracked"),
			mustValue(t, sc, "gsumd_sketch_deepest_capacity"); l != levels || tr != 0 || cp != capacity {
			t.Errorf("%s: empty daemon reports levels %v, deepest tracked %v of %v; want %d, 0 of %d", spec.Kind, l, tr, cp, levels, capacity)
		}
		// Every item of the domain, once: about 4096/2^5 = 128 reach the
		// deepest level, all of them tracked.
		if err := c.Push(whole); err != nil {
			t.Fatal(err)
		}
		tracked := mustValue(t, scrape(t, c.Base()), "gsumd_sketch_deepest_tracked")
		if tracked < 64 || tracked >= capacity {
			t.Errorf("%s: the whole domain leaves %v candidates on the deepest level, want about 128 and under %d", spec.Kind, tracked, capacity)
		}
		// A restore swaps the estimator; the gauges follow it.
		path := CheckpointPath(t.TempDir())
		if err := srv.WriteCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		fresh, fc := streamServer(t, spec)
		if err := fresh.RestoreCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		if got := mustValue(t, scrape(t, fc.Base()), "gsumd_sketch_deepest_tracked"); got != tracked {
			t.Errorf("%s: restored daemon reports %v deepest candidates, the one it was restored from %v", spec.Kind, got, tracked)
		}
	}
	_, c := streamServer(t, backend.Spec{Kind: backend.KindWindow, G: "x^2", Options: testOptions(4), Window: window.Config{W: 8, K: 2}})
	if _, ok := scrape(t, c.Base()).Value("gsumd_sketch_levels"); ok {
		t.Error("the window kind is many stacks, not one, and reports a depth")
	}
	if info, err := c.Config(); err != nil || info.Levels != 0 || info.Rows != 0 || info.Buckets != 0 || info.Tracker != 0 {
		t.Errorf("window /v1/config: levels %d, %d rows of %d buckets over %d, err %v", info.Levels, info.Rows, info.Buckets, info.Tracker, err)
	}
}
