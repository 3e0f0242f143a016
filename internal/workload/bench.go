package workload

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/window"
)

// The bench runner behind `gsum bench`: drive one scenario through one
// ingestion backend, measure wall-clock throughput, and score the
// estimate against the exact g-SUM. The backends cover the deployment
// shapes of the repository — in-process serial, the concurrent
// sharded hot path, and the gsumd worker/coordinator HTTP topology (spun up in-process on loopback
// listeners, so a single `gsum bench -backend daemon` run exercises the
// full distributed path end to end). Every estimator — serial,
// per-shard, or behind a daemon — is resolved through the backend
// registry from ONE Spec, so the topologies are provably configured
// identically (same Spec fingerprint).

// Backends lists the ingestion topologies RunBench accepts.
var Backends = []string{"serial", "sharded", "daemon"}

// BenchSpec configures one bench run.
type BenchSpec struct {
	// Generator is the scenario to run.
	Generator Generator
	// Cfg parameterizes the generator.
	Cfg Config
	// G is the catalog function whose g-SUM is estimated.
	G gfunc.Func
	// Opts configures the one-pass estimator. Opts.N is overridden with
	// Cfg.N so the estimator and stream always agree on the domain.
	Opts core.Options
	// Backend is one of Backends ("serial", "sharded", "daemon").
	Backend string
	// Workers is the shard count for the sharded backend (< 1 means
	// GOMAXPROCS) and the worker daemon count for daemon (< 1 means 1).
	Workers int
	// PushBatch is the updates-per-request size for the daemon backend
	// (0 = engine.DefaultBatchSize).
	PushBatch int
	// Transport selects how the daemon backend ships updates: "json"
	// (the default; one POST /v1/ingest per batch) or "stream" (one
	// persistent binary /v1/stream connection per worker, framed batches
	// with per-frame acks). Either way the pushing goes through the
	// async daemon.Pusher, so the comparison isolates the wire format.
	Transport string
	// Window, when positive, switches the run to sliding-window mode:
	// the scenario stream is generated with a tick dimension (Ticked;
	// Cfg.Ticks sets the stream's tick span) and the estimate covers
	// only the last Window ticks, through the registry's window kind on
	// every backend. Exact ground truth is the g-SUM over the trailing
	// window's frequency vector.
	Window int
	// WindowK is the exponential-histogram capacity (0 = window.DefaultK).
	WindowK int
}

// BenchResult reports one bench run.
type BenchResult struct {
	Workload      string
	Backend       string
	Workers       int
	Updates       int
	Distinct      int
	GenElapsed    time.Duration
	Elapsed       time.Duration // ingest + estimate, excluding generation
	UpdatesPerSec float64
	Exact         float64
	Estimate      float64
	RelErr        float64
	SpaceBytes    int
	// Transport is the daemon backend's wire transport ("json" or
	// "stream"; empty for in-process backends).
	Transport string
	// Windowed-mode extras: the window length (0 for whole-stream runs),
	// the final tick of the stream, and how many ticks beyond the window
	// the estimate still included (bounded by the histogram's documented
	// stale bound).
	Window     int
	LastTick   uint64
	StaleTicks uint64
}

// resultTransport is the normalized transport for a BenchResult: set
// only for the daemon backend, where a wire format was actually used.
func (s BenchSpec) resultTransport() string {
	if s.Backend != "daemon" {
		return ""
	}
	tr, _ := s.transport()
	return tr
}

// transport normalizes and validates BenchSpec.Transport.
func (s BenchSpec) transport() (string, error) {
	switch s.Transport {
	case "", "json":
		return "json", nil
	case "stream":
		return "stream", nil
	}
	return "", fmt.Errorf("workload: unknown transport %q (json, stream)", s.Transport)
}

// spec assembles the one backend.Spec a run resolves everything
// through: the serial estimator, every shard, and every daemon in the
// topology. Whole-stream runs open the onepass kind (or the sharded kind
// when sharding in-process); windowed runs open the window kind.
func (s BenchSpec) spec(n uint64) backend.Spec {
	opts := s.Opts
	opts.N = n
	sp := backend.Spec{Kind: backend.KindOnePass, G: s.G.Name(), Options: opts}
	if s.Window > 0 {
		sp.Kind = backend.KindWindow
		sp.Window = window.Config{W: uint64(s.Window), K: s.WindowK}
	}
	return sp
}

// RunBench generates the scenario stream, ingests it through the
// requested backend, and returns throughput plus estimate-vs-exact
// accuracy. Determinism contract: for a fixed (Generator, Cfg, G, Opts),
// the Estimate is identical across all three backends and any worker
// count, as long as the candidate trackers stay within capacity (see
// internal/core/merge.go) — `gsum bench` is therefore also an
// end-to-end check of the serial/sharded/distributed equality.
func RunBench(spec BenchSpec) (BenchResult, error) {
	if spec.Generator == nil {
		return BenchResult{}, fmt.Errorf("workload: bench needs a generator")
	}
	if spec.Window > 0 {
		return runWindowedBench(spec)
	}
	cfg := spec.Cfg.withDefaults()
	genStart := time.Now()
	s := spec.Generator.Generate(cfg)
	genElapsed := time.Since(genStart)

	v := s.Vector()
	exact := v.Sum(spec.G.Eval)

	sp := spec.spec(s.N())

	var est float64
	var space int
	var elapsed time.Duration
	workers := 1
	switch spec.Backend {
	case "", "serial", "sharded":
		if spec.Backend == "sharded" {
			workers = engine.Workers(spec.Workers)
			sp.Kind = backend.KindSharded
			sp.Workers = spec.Workers
		} else {
			spec.Backend = "serial"
		}
		start := time.Now()
		e, err := backend.Open(sp)
		if err != nil {
			return BenchResult{}, err
		}
		if err := backend.Process(e, s); err != nil {
			return BenchResult{}, err
		}
		elapsed = time.Since(start)
		est, space = e.Estimate(), e.SpaceBytes()
	case "daemon":
		// One worker daemon unless more were requested; GOMAXPROCS is a
		// shard count, not a daemon count.
		if workers = spec.Workers; workers < 1 {
			workers = 1
		}
		var err error
		est, space, elapsed, err = runDaemonBench(s, spec, sp, workers)
		if err != nil {
			return BenchResult{}, err
		}
	default:
		return BenchResult{}, fmt.Errorf("workload: unknown backend %q (%s)", spec.Backend, strings.Join(Backends, ", "))
	}

	return BenchResult{
		Workload:      spec.Generator.Name(),
		Backend:       spec.Backend,
		Workers:       workers,
		Updates:       s.Len(),
		Distinct:      v.F0(),
		GenElapsed:    genElapsed,
		Elapsed:       elapsed,
		UpdatesPerSec: float64(s.Len()) / elapsed.Seconds(),
		Exact:         exact,
		Estimate:      est,
		RelErr:        util.RelErr(est, exact),
		SpaceBytes:    space,
		Transport:     spec.resultTransport(),
	}, nil
}

// localDaemon is one in-process gsumd instance on a loopback listener.
type localDaemon struct {
	srv    *http.Server
	client *daemon.Client
	base   string
}

// startDaemon builds a gsumd server for the Spec and serves it on
// 127.0.0.1:0 (kernel-assigned port).
func startDaemon(sp backend.Spec) (*localDaemon, error) {
	s, err := daemon.NewServer(sp)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	return &localDaemon{srv: srv, client: daemon.NewClient(base, nil), base: base}, nil
}

func (d *localDaemon) close() { _ = d.srv.Close() }

// runDaemonBench exercises the full distributed topology in-process:
// `workers` worker daemons ingest disjoint contiguous shards of the
// stream over HTTP (/v1/ingest), and a coordinator daemon pulls and
// merges their snapshots (/v1/snapshot → /v1/merge) before answering
// /v1/estimate. Every daemon is built from the SAME Spec, so the merged
// estimate equals the serial one exactly (seed discipline + linearity;
// the /v1/config fingerprint handshake proves the former before any
// snapshot ships). The returned duration covers ingest through
// estimate; daemon startup (listeners, sketch construction) is
// excluded, mirroring how the other backends exclude stream generation.
func runDaemonBench(s *stream.Stream, spec BenchSpec, sp backend.Spec, workers int) (float64, int, time.Duration, error) {
	coord, err := startDaemon(sp)
	if err != nil {
		return 0, 0, 0, err
	}
	defer coord.close()
	ws := make([]*localDaemon, workers)
	urls := make([]string, workers)
	for i := range ws {
		if ws[i], err = startDaemon(sp); err != nil {
			return 0, 0, 0, err
		}
		defer ws[i].close()
		urls[i] = ws[i].base
	}

	batch := spec.PushBatch
	if batch <= 0 {
		batch = engine.DefaultBatchSize
	}
	transport, err := spec.transport()
	if err != nil {
		return 0, 0, 0, err
	}
	ctx := context.Background()
	updates := s.Updates()
	start := time.Now()
	for i, w := range ws {
		lo, hi := engine.Cut(len(updates), workers, i)
		p, err := w.client.NewPusher(ctx, daemon.PusherConfig{
			Stream: transport == "stream", MaxBatch: batch})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("worker %d: %w", i, err)
		}
		pushErr := p.Push(updates[lo:hi])
		if err := p.Close(); err != nil {
			return 0, 0, 0, fmt.Errorf("worker %d: %w", i, err)
		}
		if pushErr != nil {
			return 0, 0, 0, fmt.Errorf("worker %d: %w", i, pushErr)
		}
	}
	if err := coord.client.PullFromContext(ctx, urls); err != nil {
		return 0, 0, 0, err
	}
	resp, err := coord.client.EstimateContext(ctx, url.Values{})
	if err != nil {
		return 0, 0, 0, err
	}
	elapsed := time.Since(start)
	est, ok := resp.Value()
	if !ok {
		return 0, 0, 0, fmt.Errorf("workload: daemon estimate response missing numeric estimate: %+v", resp)
	}
	space := 0
	if info, err := coord.client.ConfigContext(ctx); err == nil {
		space = info.SpaceBytes
	}
	return est, space, elapsed, nil
}

// --- windowed mode ---------------------------------------------------------

// runWindowedBench is the sliding-window variant of RunBench: the
// scenario stream gains a tick dimension (Ticked), every backend opens
// the registry's window kind (in-process, or behind gsumd with
// /v1/advance), and the estimate is scored against the exact g-SUM
// over the trailing Window ticks. The determinism contract carries
// over: bucket structure is a pure function of the tick sequence, so
// serial and daemon windowed estimates at any worker count are
// bit-identical (same tracker-capacity caveat as whole-stream runs).
func runWindowedBench(spec BenchSpec) (BenchResult, error) {
	cfg := spec.Cfg.withDefaults()
	genStart := time.Now()
	ts := Ticked(spec.Generator, cfg)
	genElapsed := time.Since(genStart)
	last := ts.LastTick()
	w := uint64(spec.Window)

	wv := ts.WindowVector(w)
	exact := wv.Sum(spec.G.Eval)

	sp := spec.spec(ts.Stream.N())

	var est float64
	var space int
	var stale uint64
	var elapsed time.Duration
	workers := 1
	switch spec.Backend {
	case "", "serial":
		spec.Backend = "serial"
		start := time.Now()
		e, win, err := openWindowed(sp)
		if err != nil {
			return BenchResult{}, err
		}
		ingestTicked(e, win, ts, 0, ts.Stream.Len())
		win.Advance(last)
		est, space, stale = e.Estimate(), e.SpaceBytes(), win.Stale()
		elapsed = time.Since(start)
	case "sharded":
		// The sharded hot path carries no tick clock to its shards;
		// windowed runs need the ticked ingest loop, so the combination is
		// rejected rather than silently ignoring the window.
		return BenchResult{}, fmt.Errorf("workload: the sharded backend does not support windowed runs (use serial or daemon)")
	case "daemon":
		if workers = spec.Workers; workers < 1 {
			workers = 1
		}
		var err error
		est, space, stale, elapsed, err = runWindowedDaemonBench(ts, spec, sp, workers)
		if err != nil {
			return BenchResult{}, err
		}
	default:
		return BenchResult{}, fmt.Errorf("workload: unknown backend %q (%s)", spec.Backend, strings.Join(Backends, ", "))
	}

	return BenchResult{
		Workload:      spec.Generator.Name(),
		Backend:       spec.Backend,
		Workers:       workers,
		Updates:       ts.Stream.Len(),
		Distinct:      wv.F0(),
		GenElapsed:    genElapsed,
		Elapsed:       elapsed,
		UpdatesPerSec: float64(ts.Stream.Len()) / elapsed.Seconds(),
		Exact:         exact,
		Estimate:      est,
		RelErr:        util.RelErr(est, exact),
		SpaceBytes:    space,
		Transport:     spec.resultTransport(),
		Window:        spec.Window,
		LastTick:      last,
		StaleTicks:    stale,
	}, nil
}

// openWindowed opens the window kind and returns both faces of it: the
// unified Estimator and the Windowed clock capability.
func openWindowed(sp backend.Spec) (backend.Estimator, backend.Windowed, error) {
	e, err := backend.Open(sp)
	if err != nil {
		return nil, nil, err
	}
	win, ok := e.(backend.Windowed)
	if !ok {
		return nil, nil, fmt.Errorf("workload: kind %q has no tick clock", sp.Kind)
	}
	return e, win, nil
}

// ingestTicked feeds updates [lo, hi) of a ticked stream into the
// estimator, advancing the clock at each tick boundary and batching
// every run of equal-tick updates through the amortized batch path.
func ingestTicked(e backend.Estimator, win backend.Windowed, ts *TickedStream, lo, hi int) {
	updates := ts.Stream.Updates()
	_ = ts.EachRun(lo, hi, func(lo, hi int, tick uint64) error {
		win.Advance(tick)
		e.UpdateBatch(updates[lo:hi])
		return nil
	})
}

// runWindowedDaemonBench drives the windowed distributed topology:
// window-kind worker daemons absorb tick-stamped shards (advancing
// their clocks via /v1/advance between tick runs), every clock is
// synchronized to the final tick, and the coordinator pull-merges the
// worker windows before answering /v1/estimate.
func runWindowedDaemonBench(ts *TickedStream, spec BenchSpec, sp backend.Spec, workers int) (float64, int, uint64, time.Duration, error) {
	coord, err := startDaemon(sp)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer coord.close()
	ws := make([]*localDaemon, workers)
	urls := make([]string, workers)
	for i := range ws {
		if ws[i], err = startDaemon(sp); err != nil {
			return 0, 0, 0, 0, err
		}
		defer ws[i].close()
		urls[i] = ws[i].base
	}

	batch := spec.PushBatch
	if batch <= 0 {
		batch = engine.DefaultBatchSize
	}
	transport, err := spec.transport()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	ctx := context.Background()
	updates := ts.Stream.Updates()
	last := ts.LastTick()
	start := time.Now()
	for i, wkr := range ws {
		lo, hi := engine.Cut(len(updates), workers, i)
		p, err := wkr.client.NewPusher(ctx, daemon.PusherConfig{
			Stream: transport == "stream", MaxBatch: batch})
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("worker %d: %w", i, err)
		}
		// The clock and the data ride different channels (POST
		// /v1/advance vs the push transport), so every Advance is
		// preceded by a Flush: all updates of the previous tick run must
		// be applied before the clock moves, or the daemon would stamp
		// them into the wrong tick. This is the async-Pusher analogue of
		// ingestTicked's strict advance/ingest interleaving.
		err = ts.EachRun(lo, hi, func(lo, hi int, tick uint64) error {
			if err := p.Flush(); err != nil {
				return err
			}
			if _, err := wkr.client.AdvanceContext(ctx, tick); err != nil {
				return err
			}
			return p.Push(updates[lo:hi])
		})
		if cerr := p.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			_, err = wkr.client.AdvanceContext(ctx, last)
		}
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	if _, err := coord.client.AdvanceContext(ctx, last); err != nil {
		return 0, 0, 0, 0, err
	}
	if err := coord.client.PullFromContext(ctx, urls); err != nil {
		return 0, 0, 0, 0, err
	}
	resp, err := coord.client.EstimateContext(ctx, url.Values{})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	elapsed := time.Since(start)
	est, ok := resp.Value()
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("workload: daemon estimate response missing numeric estimate: %+v", resp)
	}
	stale := uint64(0)
	if resp.StaleTicks != nil {
		stale = *resp.StaleTicks
	}
	space := 0
	if info, err := coord.client.Config(); err == nil {
		space = info.SpaceBytes
	}
	return est, space, stale, elapsed, nil
}
