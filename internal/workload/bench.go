package workload

import (
	"context"
	"fmt"
	"net/url"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/window"
)

// The bench runner behind `gsum bench`: drive one scenario through one
// ingestion backend, measure wall-clock throughput, and score the
// estimate against the exact g-SUM. The backends cover the deployment
// shapes of the repository — in-process serial, the concurrent
// chunk-parallel sharded kind, and the gsumd worker/coordinator HTTP topology (spun up in-process on loopback
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
	// PushBatch is the updates-per-frame size for the daemon backend's
	// Pushers (0 = daemon.DefaultPushBatch).
	PushBatch int
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
	// Windowed-mode extras: the window length (0 for whole-stream runs),
	// the final tick of the stream, and how many ticks beyond the window
	// the estimate still included (bounded by the histogram's documented
	// stale bound).
	Window     int
	LastTick   uint64
	StaleTicks uint64
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
//
// Windowed runs (Window > 0) generate the stream with a tick dimension
// (Ticked), open the registry's window kind, and score the estimate
// against the exact g-SUM over the trailing Window ticks. The bucket
// structure is a pure function of the tick sequence, so the contract
// carries over. A whole-stream run is the same thing with one tick: its
// stream is a single tick-run and no clock is advanced.
func RunBench(spec BenchSpec) (BenchResult, error) {
	if spec.Generator == nil {
		return BenchResult{}, fmt.Errorf("workload: bench needs a generator")
	}
	cfg := spec.Cfg.withDefaults()
	genStart := time.Now()
	var ts *TickedStream
	if spec.Window > 0 {
		ts = Ticked(spec.Generator, cfg)
	} else {
		s := spec.Generator.Generate(cfg)
		ts = &TickedStream{Stream: s, Ticks: make([]uint64, s.Len())}
	}
	genElapsed := time.Since(genStart)

	var truth stream.Vector
	if spec.Window > 0 {
		truth = ts.WindowVector(uint64(spec.Window))
	} else {
		truth = ts.Stream.Vector()
	}
	exact := truth.Sum(spec.G.Eval)

	sp := spec.spec(ts.Stream.N())
	var run benchRun
	var err error
	workers := 1
	switch spec.Backend {
	case "", "serial":
		spec.Backend = "serial"
		run, err = runInProcess(ts, sp)
	case "sharded":
		// The sharded kind's Process carries no tick clock to its chunks;
		// windowed runs need the ticked ingest loop, so the combination is
		// rejected rather than silently ignoring the window.
		if spec.Window > 0 {
			return BenchResult{}, fmt.Errorf("workload: the sharded backend does not support windowed runs (use serial or daemon)")
		}
		workers = util.Workers(spec.Workers)
		sp.Kind = backend.KindSharded
		sp.Workers = spec.Workers
		run, err = runInProcess(ts, sp)
	case "daemon":
		// One worker daemon unless more were requested; GOMAXPROCS is a
		// shard count, not a daemon count.
		if workers = spec.Workers; workers < 1 {
			workers = 1
		}
		run, err = runDaemon(ts, spec, sp, workers)
	default:
		return BenchResult{}, fmt.Errorf("workload: unknown backend %q (%s)", spec.Backend, strings.Join(Backends, ", "))
	}
	if err != nil {
		return BenchResult{}, err
	}

	return BenchResult{
		Workload:      spec.Generator.Name(),
		Backend:       spec.Backend,
		Workers:       workers,
		Updates:       ts.Stream.Len(),
		Distinct:      truth.F0(),
		GenElapsed:    genElapsed,
		Elapsed:       run.elapsed,
		UpdatesPerSec: float64(ts.Stream.Len()) / run.elapsed.Seconds(),
		Exact:         exact,
		Estimate:      run.est,
		RelErr:        util.RelErr(run.est, exact),
		SpaceBytes:    run.space,
		Window:        spec.Window,
		LastTick:      ts.LastTick(),
		StaleTicks:    run.stale,
	}, nil
}

// benchRun is what one runner measured: the estimate, the state's
// bytes, the stale ticks the estimate still covers (windowed runs), and
// the time from the first update in to the estimate out.
type benchRun struct {
	est     float64
	space   int
	stale   uint64
	elapsed time.Duration
}

// runInProcess opens sp and ingests the stream in this process. A
// whole-stream run goes through backend.Process, the sharded kind's
// concurrent path included; a windowed one advances the clock to each
// tick-run's tick and feeds the run through the batch path, then advances
// to the last tick.
func runInProcess(ts *TickedStream, sp backend.Spec) (benchRun, error) {
	start := time.Now()
	e, err := backend.Open(sp)
	if err != nil {
		return benchRun{}, err
	}
	var stale uint64
	if win, ok := e.(backend.Windowed); ok {
		updates := ts.Stream.Updates()
		_ = ts.EachRun(0, len(updates), func(lo, hi int, tick uint64) error {
			win.Advance(tick)
			e.UpdateBatch(updates[lo:hi])
			return nil
		})
		win.Advance(ts.LastTick())
		stale = win.Stale()
	} else if err := backend.Process(e, ts.Stream); err != nil {
		return benchRun{}, err
	}
	est := e.Estimate()
	return benchRun{est: est, space: e.SpaceBytes(), stale: stale, elapsed: time.Since(start)}, nil
}

// runDaemon exercises the full distributed topology in-process:
// `workers` loopback worker daemons ingest disjoint contiguous shards of
// the stream through a Pusher over /v1/stream, and a coordinator daemon pulls and merges
// their snapshots (/v1/snapshot → /v1/merge) before answering
// /v1/estimate. Every daemon is built from the SAME Spec, so the merged
// estimate equals the serial one exactly (seed discipline + linearity;
// the /v1/config fingerprint handshake proves the former before any
// snapshot ships). A windowed Spec also moves every clock: each worker
// advances to a tick-run's tick before pushing the run, and every clock
// ends at the last tick before the pull. The returned duration covers
// ingest through estimate; daemon startup (listeners, sketch
// construction) is excluded, mirroring how RunBench excludes stream
// generation.
func runDaemon(ts *TickedStream, spec BenchSpec, sp backend.Spec, workers int) (benchRun, error) {
	coord, err := daemon.StartLoopback(sp)
	if err != nil {
		return benchRun{}, err
	}
	defer coord.Stop()
	ws := make([]*daemon.Loopback, workers)
	urls := make([]string, workers)
	for i := range ws {
		if ws[i], err = daemon.StartLoopback(sp); err != nil {
			return benchRun{}, err
		}
		defer ws[i].Stop()
		urls[i] = ws[i].Client.Base()
	}

	ctx := context.Background()
	windowed := sp.Kind == backend.KindWindow
	advance := func(c *daemon.Client, tick uint64) error {
		if !windowed {
			return nil
		}
		_, err := c.AdvanceContext(ctx, tick)
		return err
	}
	updates := ts.Stream.Updates()
	last := ts.LastTick()
	start := time.Now()
	for i, w := range ws {
		lo, hi := util.Cut(len(updates), workers, i)
		p, err := w.Client.NewPusher(ctx, daemon.PusherConfig{MaxBatch: spec.PushBatch})
		if err != nil {
			return benchRun{}, fmt.Errorf("worker %d: %w", i, err)
		}
		// The clock and the data ride different channels (POST
		// /v1/advance vs the stream), so every Advance is
		// preceded by a Flush: all updates of the previous tick run must
		// be applied before the clock moves, or the daemon would stamp
		// them into the wrong tick.
		err = ts.EachRun(lo, hi, func(lo, hi int, tick uint64) error {
			if err := p.Flush(); err != nil {
				return err
			}
			if err := advance(w.Client, tick); err != nil {
				return err
			}
			return p.Push(updates[lo:hi])
		})
		if cerr := p.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = advance(w.Client, last)
		}
		if err != nil {
			return benchRun{}, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	if err := advance(coord.Client, last); err != nil {
		return benchRun{}, err
	}
	if err := coord.Client.PullFromContext(ctx, urls); err != nil {
		return benchRun{}, err
	}
	resp, err := coord.Client.EstimateContext(ctx, url.Values{})
	if err != nil {
		return benchRun{}, err
	}
	elapsed := time.Since(start)
	est, ok := resp.Value()
	if !ok {
		return benchRun{}, fmt.Errorf("workload: daemon estimate response missing numeric estimate: %+v", resp)
	}
	var stale uint64
	if resp.StaleTicks != nil {
		stale = *resp.StaleTicks
	}
	info, err := coord.Client.ConfigContext(ctx)
	if err != nil {
		return benchRun{}, fmt.Errorf("workload: coordinator config: %w", err)
	}
	return benchRun{est: est, space: info.SpaceBytes, stale: stale, elapsed: elapsed}, nil
}
