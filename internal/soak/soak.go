package soak

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/window"
)

// Config parameterizes one soak run. The zero value is not usable; see
// the field defaults.
type Config struct {
	// Workers is the worker daemon count (default 2). Even-indexed
	// workers ingest over the binary stream transport, odd-indexed ones
	// over JSON POSTs, so one run exercises both paths.
	Workers int
	// Windowed selects the window kind with a tick advanced every
	// round; false runs the flat one-pass kind.
	Windowed bool
	// Kind overrides the flat estimator kind ("" = onepass). The only
	// other supported value is backend.KindSharded, which runs every
	// daemon on the sharded hot path; the serial ground-truth replay
	// then uses the onepass kind, so the run also proves the cross-kind
	// contract (sharded daemons == one serial onepass, bit for bit).
	// Incompatible with Windowed.
	Kind backend.Kind
	// Duration is the wall-clock floor: rounds keep going until it has
	// elapsed (and always at least MinRounds). Default 500ms.
	Duration time.Duration
	// Seed derives every per-worker workload (deterministic).
	Seed uint64
	// ScrapeEvery is how many rounds pass between mid-soak scrapes
	// (default 2); the final scrape always happens.
	ScrapeEvery int
	// Logf (nil = silent) receives one line per scrape round.
	Logf func(format string, args ...interface{})
}

// MinRounds is the floor on workload rounds regardless of Duration, so
// even the short CI mode sees multiple pull/scrape cycles.
const MinRounds = 6

// Report is what a soak run proves, plus the final artifacts.
type Report struct {
	// Rounds and Updates measure the workload: every worker pushed its
	// chunk once per round.
	Rounds  int
	Updates uint64
	// Scrapes counts mid-soak metric scrapes that passed the invariant
	// checks.
	Scrapes int
	// Estimate is the coordinator's final pulled estimate;
	// SerialEstimate is a single serial estimator fed the identical
	// updates. Run fails unless they are bit-identical.
	Estimate       float64
	SerialEstimate float64
	// FinalScrapes holds the final /metrics text per node (keys
	// "coordinator", "worker0", ... and "pushers" for the client-side
	// registry) — the nightly job uploads these as artifacts.
	FinalScrapes map[string][]byte
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 500 * time.Millisecond
	}
	if cfg.ScrapeEvery <= 0 {
		cfg.ScrapeEvery = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	return cfg
}

// node is one in-process daemon on a real loopback listener.
type node struct {
	name    string
	srv     *daemon.Server
	httpSrv *http.Server
	client  *daemon.Client
	base    string
}

func startNode(name string, spec backend.Spec) (*node, error) {
	srv, err := daemon.NewServer(spec)
	if err != nil {
		return nil, fmt.Errorf("soak: %s: %w", name, err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("soak: %s: %w", name, err)
	}
	n := &node{name: name, srv: srv, base: "http://" + l.Addr().String()}
	n.httpSrv = &http.Server{Handler: srv.Handler()}
	go func() { _ = n.httpSrv.Serve(l) }()
	srv.SetReady(true)
	n.client = daemon.NewClient(n.base, nil)
	return n, nil
}

func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.httpSrv.Shutdown(ctx)
	_ = n.srv.DrainStreams(ctx)
}

// scrape fetches and parses one node's /metrics, returning the raw text
// alongside so the caller can keep it as an artifact.
func (n *node) scrape() (*metrics.Scrape, []byte, error) {
	resp, err := http.Get(n.base + "/metrics")
	if err != nil {
		return nil, nil, fmt.Errorf("soak: scrape %s: %w", n.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("soak: scrape %s: %s", n.name, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("soak: scrape %s: %w", n.name, err)
	}
	sc, err := metrics.Parse(strings.NewReader(string(raw)))
	if err != nil {
		return nil, nil, fmt.Errorf("soak: scrape %s: %w", n.name, err)
	}
	return sc, raw, nil
}

// Run boots the topology, drives the workload, and asserts every
// invariant; any violation is the returned error.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	spec := backend.Spec{
		Kind: backend.KindOnePass, G: "x^2",
		Options: core.Options{N: 1 << 12, M: 1 << 10, Eps: 0.25,
			Seed: cfg.Seed, Lambda: 1.0 / 16},
	}
	switch {
	case cfg.Windowed && cfg.Kind != "":
		return nil, fmt.Errorf("soak: Kind %q is incompatible with Windowed", cfg.Kind)
	case cfg.Windowed:
		spec.Kind = backend.KindWindow
		spec.Window = window.Config{W: 4}
	case cfg.Kind == backend.KindSharded:
		spec.Kind = backend.KindSharded
	case cfg.Kind != "" && cfg.Kind != backend.KindOnePass:
		return nil, fmt.Errorf("soak: unsupported Kind %q (onepass or sharded)", cfg.Kind)
	}

	coord, err := startNode("coordinator", spec)
	if err != nil {
		return nil, err
	}
	defer coord.stop()
	workers := make([]*node, cfg.Workers)
	for i := range workers {
		w, err := startNode(fmt.Sprintf("worker%d", i), spec)
		if err != nil {
			return nil, err
		}
		defer w.stop()
		workers[i] = w
		if err := coord.srv.Membership().Add(w.base); err != nil {
			return nil, fmt.Errorf("soak: membership: %w", err)
		}
	}
	// Membership loops run hot so heartbeats and pulls genuinely overlap
	// the ingest load (that overlap is half the point of the soak).
	coord.srv.Membership().Start(daemon.MembershipConfig{
		Heartbeat: 50 * time.Millisecond, PullEvery: 75 * time.Millisecond})
	membershipUp := true
	defer func() {
		if membershipUp {
			coord.srv.Membership().Stop()
		}
	}()

	// One deterministic chunk per worker, pushed once per round. The
	// sketches are linear, so the serial ground truth is the same chunks
	// fed to one estimator in the same tick order.
	pushReg := metrics.New()
	chunks := make([][]stream.Update, cfg.Workers)
	pushers := make([]*daemon.Pusher, cfg.Workers)
	for i, w := range workers {
		chunks[i] = stream.Zipf(stream.GenConfig{N: spec.Options.N, M: spec.Options.M,
			Seed: cfg.Seed*1013 + uint64(i)}, 90, 1.1).Updates()
		p, err := w.client.NewPusher(context.Background(), daemon.PusherConfig{
			Stream: i%2 == 0, MaxBatch: 128,
			Metrics: pushReg,
			Labels:  []metrics.Label{{Key: "worker", Value: w.name}},
		})
		if err != nil {
			return nil, fmt.Errorf("soak: pusher %s: %w", w.name, err)
		}
		pushers[i] = p
	}

	rep := &Report{FinalScrapes: make(map[string][]byte)}
	var lastAggregate float64
	prevTotals := make([]map[string]float64, cfg.Workers)

	// The soak's load is benign — under a hundred items a worker — so the
	// assumption the sketch's depth rests on must hold on every node at
	// every scrape: the deepest level tracks fewer candidates than it can,
	// i.e. all of its sub-universe. And the sizing gauges say what a fresh
	// Open of the Spec resolves (heavy.dims), whatever a rebuild swapped in.
	// Kinds that are not one recursive stack, the window kind here, have no
	// such gauges.
	ref, err := backend.Open(spec)
	if err != nil {
		return nil, err
	}
	checkDeepest := func(name string, sc *metrics.Scrape) error {
		tracked, ok := sc.Value("gsumd_sketch_deepest_tracked")
		if !ok {
			return nil
		}
		if capacity, _ := sc.Value("gsumd_sketch_deepest_capacity"); tracked >= capacity {
			return fmt.Errorf("soak: %s: deepest level tracks %v candidates of a capacity of %v under benign load", name, tracked, capacity)
		}
		rows, _ := sc.Value("gsumd_sketch_rows")
		buckets, _ := sc.Value("gsumd_sketch_buckets")
		if r, b := ref.(backend.Layered).Dims(); rows != float64(r) || buckets != float64(b) {
			return fmt.Errorf("soak: %s: reports %v rows of %v buckets, the Spec opens as %d of %d", name, rows, buckets, r, b)
		}
		return nil
	}
	checkWorker := func(i int, sc *metrics.Scrape) error {
		w := workers[i]
		if err := checkDeepest(w.name, sc); err != nil {
			return err
		}
		// Counters never run backwards, scrape over scrape.
		totals := map[string]float64{}
		for _, name := range []string{
			"gsumd_stream_acked_updates_total",
			"gsumd_stream_acked_frames_total",
			"gsumd_ingested_updates",
		} {
			if v, ok := sc.Value(name); ok {
				totals[name] = v
			}
		}
		if prev := prevTotals[i]; prev != nil {
			for name, was := range prev {
				if now := totals[name]; now < was {
					return fmt.Errorf("soak: %s: %s went backwards (%v -> %v)", w.name, name, was, now)
				}
			}
		}
		prevTotals[i] = totals
		return nil
	}
	checkCoordinator := func(sc *metrics.Scrape) error {
		if err := checkDeepest(coord.name, sc); err != nil {
			return err
		}
		// The rebuilt aggregate only ever grows: every pull round folds
		// each retained snapshot exactly once into a fresh estimator, so
		// a dip (or a jump past what was pushed) is a double-count or a
		// lost snapshot.
		if agg, ok := sc.Value("gsumd_aggregate_ingested_updates"); ok {
			if agg < lastAggregate {
				return fmt.Errorf("soak: aggregate ingested went backwards (%v -> %v)", lastAggregate, agg)
			}
			if agg > float64(rep.Updates) {
				return fmt.Errorf("soak: aggregate ingested %v exceeds %d pushed updates (double count)", agg, rep.Updates)
			}
			lastAggregate = agg
		}
		return nil
	}

	// Workload rounds.
	deadline := time.Now().Add(cfg.Duration)
	tick := uint64(0)
	for rep.Rounds < MinRounds || time.Now().Before(deadline) {
		for i, p := range pushers {
			if err := p.Push(chunks[i]); err != nil {
				return nil, fmt.Errorf("soak: push %s: %w", workers[i].name, err)
			}
			rep.Updates += uint64(len(chunks[i]))
		}
		if cfg.Windowed {
			// Flush before advancing so every update of this round is
			// stamped with this tick on every daemon — the grouping the
			// serial replay reproduces.
			for i, p := range pushers {
				if err := p.Flush(); err != nil {
					return nil, fmt.Errorf("soak: flush %s: %w", workers[i].name, err)
				}
			}
			tick++
			for _, n := range append(append([]*node(nil), workers...), coord) {
				if _, err := n.client.Advance(tick); err != nil {
					return nil, fmt.Errorf("soak: advance %s: %w", n.name, err)
				}
			}
		}
		rep.Rounds++
		if rep.Rounds%cfg.ScrapeEvery == 0 {
			for i, w := range workers {
				sc, _, err := w.scrape()
				if err != nil {
					return nil, err
				}
				if err := checkWorker(i, sc); err != nil {
					return nil, err
				}
			}
			sc, _, err := coord.scrape()
			if err != nil {
				return nil, err
			}
			if err := checkCoordinator(sc); err != nil {
				return nil, err
			}
			rep.Scrapes++
			cfg.Logf("soak: round %d, %d updates pushed, aggregate %v", rep.Rounds, rep.Updates, lastAggregate)
		}
	}

	// Quiesce: every pusher flushes and closes (stream acks all
	// collected), then the membership loops stop so pull rounds become
	// deterministic.
	for i, p := range pushers {
		if err := p.Close(); err != nil {
			return nil, fmt.Errorf("soak: close %s: %w", workers[i].name, err)
		}
	}
	coord.srv.Membership().Stop()
	membershipUp = false

	// Post-quiesce pulls: twice, and the estimate gauge must not move
	// between them — rebuilds replace, they never accumulate.
	if err := coord.srv.Membership().PullAll(); err != nil {
		return nil, fmt.Errorf("soak: final pull: %w", err)
	}
	scA, _, err := coord.scrape()
	if err != nil {
		return nil, err
	}
	estA, okA := scA.Value("gsumd_estimate")
	if err := coord.srv.Membership().PullAll(); err != nil {
		return nil, fmt.Errorf("soak: second pull: %w", err)
	}
	scB, rawB, err := coord.scrape()
	if err != nil {
		return nil, err
	}
	estB, okB := scB.Value("gsumd_estimate")
	if !okA || !okB {
		return nil, fmt.Errorf("soak: no gsumd_estimate gauge on the coordinator")
	}
	if estA != estB {
		return nil, fmt.Errorf("soak: estimate moved across idle pull rounds: %v -> %v (rebuild double-counted)", estA, estB)
	}
	if err := checkCoordinator(scB); err != nil {
		return nil, err
	}
	if lastAggregate != float64(rep.Updates) {
		return nil, fmt.Errorf("soak: final aggregate %v != %d pushed updates", lastAggregate, rep.Updates)
	}
	rep.FinalScrapes[coord.name] = rawB

	// Per-worker quiesce invariants, from the final scrapes.
	for i, w := range workers {
		sc, raw, err := w.scrape()
		if err != nil {
			return nil, err
		}
		rep.FinalScrapes[w.name] = raw
		pushed := float64(rep.Rounds * len(chunks[i]))
		if v, ok := sc.Value("gsumd_ingested_updates"); !ok || v != pushed {
			return nil, fmt.Errorf("soak: %s ingested %v, pushed %v", w.name, v, pushed)
		}
		transport := "json"
		if i%2 == 0 {
			transport = "stream"
		}
		applied, ok := sc.Value("gsumd_ingest_updates_total",
			metrics.Label{Key: "transport", Value: transport})
		if !ok || applied != pushed {
			return nil, fmt.Errorf("soak: %s applied %v over %s, pushed %v", w.name, applied, transport, pushed)
		}
		if transport == "stream" {
			// Ack receipts: at quiesce, every applied update is acked —
			// acks are issued only after apply, and Close waited for all
			// of them.
			acked, _ := sc.Value("gsumd_stream_acked_updates_total")
			if acked != applied {
				return nil, fmt.Errorf("soak: %s acked %v != applied %v", w.name, acked, applied)
			}
			frames, _ := sc.Value("gsumd_stream_acked_frames_total")
			bs, _ := sc.Value("gsumd_ingest_batch_size_count")
			if frames == 0 || frames != bs {
				return nil, fmt.Errorf("soak: %s acked %v frames, observed %v batches", w.name, frames, bs)
			}
			if conns, _ := sc.Value("gsumd_stream_connections"); conns != 0 {
				return nil, fmt.Errorf("soak: %s still reports %v live stream connections", w.name, conns)
			}
		}
		if v, ok := sc.Value("gsumd_ingest_batch_size_count"); !ok || v == 0 {
			return nil, fmt.Errorf("soak: %s batch-size histogram empty", w.name)
		}
		if cfg.Windowed {
			if v, ok := sc.Value("gsumd_window_tick"); !ok || v != float64(tick) {
				return nil, fmt.Errorf("soak: %s window tick %v, want %d", w.name, v, tick)
			}
		}
	}

	// Coordinator latency evidence: the pull rounds timed their rebuilds
	// (PullAll merges server-side, so /v1/merge's histogram stays empty
	// here) and every round landed on the ok counter.
	if v, ok := scB.Value("gsumd_rebuild_seconds_count"); !ok || v == 0 {
		return nil, fmt.Errorf("soak: coordinator rebuild histogram empty")
	}
	okPulls, _ := scB.Value("gsumd_pull_rounds_total", metrics.Label{Key: "result", Value: "ok"})
	if okPulls < 2 {
		return nil, fmt.Errorf("soak: only %v ok pull rounds recorded", okPulls)
	}
	if v, ok := scB.Value("gsumd_heap_alloc_bytes"); !ok || v <= 0 {
		return nil, fmt.Errorf("soak: heap gauge missing (%v)", v)
	}

	// Client-side pusher registry: session totals must agree with what
	// the workers applied, and nothing may still be queued or in flight.
	var pushText strings.Builder
	if err := pushReg.WritePrometheus(&pushText); err != nil {
		return nil, err
	}
	rep.FinalScrapes["pushers"] = []byte(pushText.String())
	psc, err := metrics.Parse(strings.NewReader(pushText.String()))
	if err != nil {
		return nil, err
	}
	for i, w := range workers {
		wl := metrics.Label{Key: "worker", Value: w.name}
		if v, ok := psc.Value("gsum_pusher_acked_updates", wl); !ok || v != float64(rep.Rounds*len(chunks[i])) {
			return nil, fmt.Errorf("soak: pusher %s acked %v, want %d", w.name, v, rep.Rounds*len(chunks[i]))
		}
		for _, name := range []string{"gsum_pusher_queue_depth", "gsum_pusher_inflight_frames"} {
			if v, _ := psc.Value(name, wl); v != 0 {
				return nil, fmt.Errorf("soak: pusher %s %s = %v after Close", w.name, name, v)
			}
		}
	}

	// Ground truth: the same chunks through one serial estimator, in the
	// same tick grouping, must yield the coordinator's estimate exactly —
	// linear sketches make distribution invisible, bit for bit. A sharded
	// soak deliberately replays through the PLAIN onepass kind: passing
	// means the hot path is indistinguishable from serial ingest even
	// across the daemon snapshot/merge protocol.
	replaySpec := spec
	if spec.Kind == backend.KindSharded {
		replaySpec.Kind = backend.KindOnePass
		replaySpec.Workers = 0
	}
	serial, err := backend.Open(replaySpec)
	if err != nil {
		return nil, err
	}
	if cfg.Windowed {
		win := serial.(backend.Windowed)
		for t := uint64(1); t <= tick; t++ {
			for i := range chunks {
				serial.UpdateBatch(chunks[i])
			}
			win.Advance(t)
		}
		for r := int(tick); r < rep.Rounds; r++ { // rounds after the last advance
			for i := range chunks {
				serial.UpdateBatch(chunks[i])
			}
		}
	} else {
		for r := 0; r < rep.Rounds; r++ {
			for i := range chunks {
				serial.UpdateBatch(chunks[i])
			}
		}
	}
	rep.SerialEstimate = serial.Estimate()
	resp, err := coord.client.Estimate(url.Values{})
	if err != nil {
		return nil, fmt.Errorf("soak: final estimate: %w", err)
	}
	got, ok := resp.Value()
	if !ok {
		return nil, fmt.Errorf("soak: final estimate has no value: %+v", resp)
	}
	rep.Estimate = got
	if rep.Estimate != rep.SerialEstimate {
		return nil, fmt.Errorf("soak: distributed estimate %v != serial %v", rep.Estimate, rep.SerialEstimate)
	}
	if estB != rep.Estimate {
		return nil, fmt.Errorf("soak: estimate gauge %v != /v1/estimate %v", estB, rep.Estimate)
	}
	return rep, nil
}
