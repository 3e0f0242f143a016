// Command gsum is the command-line front end of the reproduction:
//
//	gsum classify                 classify the paper's function catalog
//	gsum classify -f x^2          classify one named catalog function
//	gsum estimate [flags]         estimate a g-SUM on a generated stream
//	gsum estimate -workers 8      ... through the sharded kind (8 chunks)
//	gsum bench -workload zipf     benchmark a workload scenario end to end
//	gsum bench -backend daemon    ... through an in-process gsumd topology
//	gsum bench -backend list      print the registered backend kinds
//	gsum bench -window 8          ... estimating only the last 8 ticks
//	gsum sweep -f sweep.json      run a workload x backend x eps matrix
//	gsum sweep -smoke             ... the built-in small smoke matrix
//	gsum experiments [-quick]     run the full E1-E15 experiment suite
//	gsum experiments -run E4      run a single experiment
//	gsum push [flags]             push a stream shard to a gsumd daemon
//	gsum query [flags]            query a gsumd daemon's estimate
//
// Every run is deterministic given -seed (and, for estimate, -workers:
// the sharded kind merges contiguous chunks by linearity, so worker
// count does not change the counters — see core.ProcessParallel).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	universal "repro"
	"repro/internal/cliflag"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the CLI. It is the testable entry point: everything is
// written to the given writers and the exit code is returned instead of
// calling os.Exit.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) < 1 {
		usage(stderr)
		return 2
	}
	switch argv[0] {
	case "classify":
		return runClassify(argv[1:], stdout, stderr)
	case "estimate":
		return runEstimate(argv[1:], stdout, stderr)
	case "bench":
		return runBench(argv[1:], stdout, stderr)
	case "sweep":
		return runSweep(argv[1:], stdout, stderr)
	case "experiments":
		return runExperiments(argv[1:], stdout, stderr)
	case "push":
		return runPush(argv[1:], stdout, stderr)
	case "query":
		return runQuery(argv[1:], stdout, stderr)
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "gsum: unknown command %q\n", argv[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  gsum classify [-f name] [-m max]    zero-one-law classification
  gsum estimate [flags]               estimate g-SUM on a generated stream
  gsum bench [flags]                  benchmark a workload scenario end to end
  gsum sweep -f CONFIG | -smoke       run a sweep matrix across worker processes
  gsum experiments [-quick] [-run E#] reproduce the paper's experiments
  gsum push -addr URL [flags]         push a stream shard to a gsumd daemon
  gsum query -addr URL [flags]        query a gsumd daemon's estimate
`)
}

func catalogByName() map[string]gfunc.Func {
	m := make(map[string]gfunc.Func)
	for _, e := range gfunc.Catalog() {
		m[e.Func.Name()] = e.Func
	}
	return m
}

func runClassify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("f", "", "classify only the named catalog function")
	m := fs.Uint64("m", 1<<20, "witness search range [1, m]")
	if code, ok := cliflag.Parse(fs, args, stderr); !ok {
		return code
	}

	cfg := gfunc.DefaultCheckConfig()
	cfg.M = *m
	if *name != "" {
		g, ok := catalogByName()[*name]
		if !ok {
			fmt.Fprintf(stderr, "gsum: unknown function %q; available:\n", *name)
			for _, e := range gfunc.Catalog() {
				fmt.Fprintf(stderr, "  %s\n", e.Func.Name())
			}
			return 2
		}
		c := gfunc.Classify(g, cfg)
		fmt.Fprintln(stdout, c.String())
		fmt.Fprintf(stdout, "  slow-jumping:   mid=%.3f top=%.3f witness %s\n",
			c.SlowJumping.MidExponent, c.SlowJumping.TopExponent, c.SlowJumping.Witness)
		fmt.Fprintf(stdout, "  slow-dropping:  mid=%.3f top=%.3f witness %s\n",
			c.SlowDropping.MidExponent, c.SlowDropping.TopExponent, c.SlowDropping.Witness)
		fmt.Fprintf(stdout, "  predictable:    mid=%.3f top=%.3f witness %s\n",
			c.Predictable.MidExponent, c.Predictable.TopExponent, c.Predictable.Witness)
		fmt.Fprintf(stdout, "  nearly periodic: mid=%.3f top=%.3f witness %s\n",
			c.NearlyPeriodic.MidExponent, c.NearlyPeriodic.TopExponent, c.NearlyPeriodic.Witness)
		return 0
	}
	for _, e := range gfunc.Catalog() {
		fmt.Fprintln(stdout, gfunc.Classify(e.Func, cfg).String())
	}
	return 0
}

func runEstimate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("estimate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fname := fs.String("f", "x^2", "catalog function to sum")
	n := fs.Uint64("n", 1<<12, "domain size")
	m := fs.Int64("m", 1<<10, "max |frequency|")
	items := fs.Int("items", 400, "distinct items")
	alpha := fs.Float64("alpha", 1.1, "zipf exponent")
	eps := fs.Float64("eps", 0.25, "target accuracy")
	seed := fs.Uint64("seed", 1, "random seed")
	passes := fs.Int("passes", 1, "1 or 2 passes")
	workers := fs.Int("workers", 1, "ingestion workers: contiguous chunks sketched in parallel, then merged into one sketch (0 = GOMAXPROCS, 1 = serial)")
	if code, ok := cliflag.Parse(fs, args, stderr); !ok {
		return code
	}

	g, ok := catalogByName()[*fname]
	if !ok {
		fmt.Fprintf(stderr, "gsum: unknown function %q\n", *fname)
		return 2
	}
	s := stream.Zipf(stream.GenConfig{N: *n, M: *m, Seed: *seed}, *items, *alpha)

	// Both the ground truth and the sketch resolve through the registry:
	// the exact baseline is just another Spec kind.
	exact, err := universal.Open(universal.Spec{Kind: universal.KindExact, G: *fname,
		Options: universal.Options{N: *n, M: *m, Seed: *seed}})
	if err != nil {
		fmt.Fprintf(stderr, "gsum: %v\n", err)
		return 1
	}
	if err := universal.Process(exact, s); err != nil {
		fmt.Fprintf(stderr, "gsum: %v\n", err)
		return 1
	}
	truth := exact.Estimate()

	var kind universal.Kind
	switch *passes {
	case 1:
		if kind = universal.KindOnePass; *workers != 1 {
			kind = universal.KindSharded
		}
	case 2:
		kind = universal.KindTwoPass
	default:
		fmt.Fprintln(stderr, "gsum: -passes must be 1 or 2")
		return 2
	}
	e, err := universal.Open(universal.Spec{Kind: kind, G: *fname,
		Options: universal.Options{N: *n, M: *m, Eps: *eps, Seed: *seed * 7},
		Workers: *workers})
	if err != nil {
		fmt.Fprintf(stderr, "gsum: %v\n", err)
		return 1
	}
	if err := universal.Process(e, s); err != nil {
		fmt.Fprintf(stderr, "gsum: %v\n", err)
		return 1
	}
	est, space := e.Estimate(), e.SpaceBytes()
	fmt.Fprintf(stdout, "g = %s over zipf(n=%d, M=%d, items=%d, alpha=%.2f)\n",
		g.Name(), *n, *m, *items, *alpha)
	if *workers != 1 {
		fmt.Fprintf(stdout, "ingestion: sharded across %d workers (merged by linearity)\n",
			util.Workers(*workers))
	}
	fmt.Fprintf(stdout, "exact   %.6g  (%d bytes)\n", truth, exact.SpaceBytes())
	fmt.Fprintf(stdout, "%d-pass  %.6g  (%d bytes), relative error %.4f\n",
		*passes, est, space, util.RelErr(est, truth))
	return 0
}

// runBench drives one workload scenario through one ingestion backend
// and reports throughput plus estimate-vs-exact accuracy. It is the CLI
// face of internal/workload: `gsum bench -workload zipf -backend daemon
// -workers 4` spins up an in-process worker/coordinator gsumd topology
// and exercises the full distributed path end to end.
func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "zipf", "scenario: "+strings.Join(workload.Names(), ", "))
	fname := fs.String("f", "x^2", "catalog function to sum")
	n := fs.Uint64("n", 1<<16, "domain size")
	items := fs.Int("items", 4096, "working-set cardinality (distinct items)")
	length := fs.Int("len", 1<<17, "stream length (updates)")
	alpha := fs.Float64("alpha", 1.1, "zipf/bursty skew exponent")
	eps := fs.Float64("eps", 0.25, "target accuracy")
	seed := fs.Uint64("seed", 1, "random seed (stream and sketch)")
	workers := fs.Int("workers", 1, "chunks for sharded (0 = GOMAXPROCS) / worker daemons for daemon (min 1)")
	backend := fs.String("backend", "serial", "ingestion backend: "+strings.Join(workload.Backends, ", ")+
		` ("list" prints the registered backend kinds and exits)`)
	win := fs.Int("window", 0, "sliding-window mode: estimate only the last W ticks (0 = whole stream)")
	ticks := fs.Int("ticks", workload.DefaultTicks, "tick span of the generated stream (windowed mode)")
	windowk := fs.Int("windowk", 0, "window panes: at most K+1, each about W/K ticks; higher = fewer stale ticks, more space (0 = default 2)")
	trace := fs.String("trace", "", "CSV file for the trace workload (item[,delta] per line; default: embedded trace)")
	configPath := fs.String("config", "", "path to a Spec JSON file (the shape gsumd serves at /v1/config); sets the estimator side (-f, -eps, -window, -windowk, -workers and the sketch seed) so a bench provably matches a deployed daemon fleet")
	if code, ok := cliflag.Parse(fs, args, stderr); !ok {
		return code
	}
	// A Spec file pins the estimator configuration; the workload side
	// (-workload, -n, -len, -seed for the stream) stays on flags.
	var fileSpec *universal.Spec
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fmt.Fprintf(stderr, "gsum bench: -config: %v\n", err)
			return 2
		}
		sp, err := universal.ParseSpec(data)
		if err != nil {
			fmt.Fprintf(stderr, "gsum bench: -config %s: %v\n", *configPath, err)
			return 2
		}
		fileSpec = &sp
		*fname = sp.G
		*eps = sp.Options.Eps
		*win = int(sp.Window.W)
		*windowk = sp.Window.K
		if sp.Workers != 0 {
			*workers = sp.Workers
		}
	}
	if *win < 0 || *ticks < 1 {
		fmt.Fprintln(stderr, "gsum bench: -window must be >= 0 and -ticks >= 1")
		return 2
	}
	// Field-by-field validation of the user's scenario, surfaced as flag
	// errors — a bad -items is a message, not a silently substituted
	// default deep inside a generator.
	cfg := workload.Config{N: *n, Items: *items, Length: *length, Seed: *seed, Ticks: *ticks}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "gsum bench: %v\n", err)
		return 2
	}
	if err := workload.ValidateAlpha(*alpha); err != nil {
		fmt.Fprintf(stderr, "gsum bench: %v\n", err)
		return 2
	}

	if *backend == "list" {
		// Straight from the registry, so this listing cannot drift from
		// the code (satellite of the Spec/Open redesign).
		fmt.Fprintln(stdout, "registered backend kinds:")
		for _, k := range universal.Kinds() {
			fmt.Fprintf(stdout, "  %-12s %s\n", k, universal.Describe(universal.Kind(k)))
		}
		fmt.Fprintf(stdout, "ingestion topologies for -backend: %s\n", strings.Join(workload.Backends, ", "))
		return 0
	}

	validBackend := false
	for _, b := range workload.Backends {
		if *backend == b {
			validBackend = true
			break
		}
	}
	if !validBackend {
		fmt.Fprintf(stderr, "gsum: unknown backend %q; available: %s\n",
			*backend, strings.Join(workload.Backends, ", "))
		return 2
	}

	g, ok := catalogByName()[*fname]
	if !ok {
		fmt.Fprintf(stderr, "gsum: unknown function %q\n", *fname)
		return 2
	}
	opts := universal.Options{M: 1 << 10, Eps: *eps, Seed: *seed * 7, Lambda: 1.0 / 16}
	if fileSpec != nil {
		// The file's resolved Options ARE the estimator configuration —
		// including the sketch seed — so the bench estimator fingerprints
		// identically to a daemon booted from the same file. Only the
		// domain N tracks the generated stream.
		opts = fileSpec.Options
	}
	// -alpha sets the skewed scenarios' skew, the adversarial scenario
	// aims at the sketch seed this bench opens (the file's, with
	// -config), and the trace scenario replays -trace.
	gen, ok := workload.Configured(*wname, *alpha, opts.Seed, *trace)
	if !ok {
		fmt.Fprintf(stderr, "gsum: unknown workload %q; available:\n", *wname)
		for _, w := range workload.Generators() {
			fmt.Fprintf(stderr, "  %-9s %s\n", w.Name(), w.Description())
		}
		return 2
	}
	if tr, isTrace := gen.(workload.TraceReplay); isTrace {
		if err := tr.Validate(); err != nil {
			fmt.Fprintf(stderr, "gsum bench: %v\n", err)
			return 2
		}
	}
	res, err := workload.RunBench(workload.BenchSpec{
		Generator: gen,
		Cfg:       cfg,
		G:         g,
		Opts:      opts,
		Backend:   *backend,
		Workers:   *workers,
		Window:    *win,
		WindowK:   *windowk,
	})
	if err != nil {
		fmt.Fprintf(stderr, "gsum bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s: %s\n", res.Workload, gen.Description())
	distinctIn := "stream"
	if res.Window > 0 {
		distinctIn = "window"
	}
	fmt.Fprintf(stdout, "stream: %d updates, %d distinct items in %s, domain %d (generated in %v)\n",
		res.Updates, res.Distinct, distinctIn, *n, res.GenElapsed.Round(time.Millisecond))
	if res.Window > 0 {
		fmt.Fprintf(stdout, "window: last %d of %d ticks (clock at %d, %d stale tick(s) included)\n",
			res.Window, *ticks, res.LastTick, res.StaleTicks)
	}
	fmt.Fprintf(stdout, "backend %s (%d worker(s)): %.0f updates/s (%v)\n",
		res.Backend, res.Workers, res.UpdatesPerSec, res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "g = %s\n", g.Name())
	fmt.Fprintf(stdout, "exact    %.6g\n", res.Exact)
	fmt.Fprintf(stdout, "estimate %.6g  relative error %.4f  (%d sketch bytes)\n",
		res.Estimate, res.RelErr, res.SpaceBytes)
	return 0
}

func runExperiments(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "shrink workloads for a fast pass")
	run := fs.String("run", "", "run a single experiment, e.g. E4")
	if code, ok := cliflag.Parse(fs, args, stderr); !ok {
		return code
	}

	if *run != "" {
		id := strings.ToUpper(*run)
		for _, r := range experiments.Runners() {
			if r.ID == id {
				t := r.Run(*quick)
				t.Render(stdout)
				return 0
			}
		}
		fmt.Fprintf(stderr, "gsum: unknown experiment %q (E1..E15)\n", *run)
		return 2
	}
	for _, t := range experiments.All(*quick) {
		t.Render(stdout)
	}
	return 0
}

// runPush generates the canonical seeded Zipf stream and pushes one
// contiguous shard of it to a gsumd daemon — the worker half of the
// two-terminal walkthrough in the README. Every worker in a deployment
// runs the same command with a different -shard index; together they
// cover the stream exactly once. All pushing goes through the async
// daemon.Pusher: a bounded queue feeding frames over one /v1/stream
// connection, each acknowledged after the daemon applies it.
func runPush(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("push", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:7600", "gsumd base URL")
	n := fs.Uint64("n", 1<<12, "domain size")
	m := fs.Int64("m", 1<<10, "max |frequency|")
	items := fs.Int("items", 90, "distinct items")
	alpha := fs.Float64("alpha", 1.1, "zipf exponent")
	seed := fs.Uint64("seed", 1, "stream seed (same on every worker)")
	shard := fs.Int("shard", 0, "this worker's shard index")
	of := fs.Int("of", 1, "total number of shards")
	batch := fs.Int("batch", daemon.DefaultPushBatch, "updates per frame")
	if code, ok := cliflag.Parse(fs, args, stderr); !ok {
		return code
	}
	if *of < 1 || *shard < 0 || *shard >= *of {
		fmt.Fprintf(stderr, "gsum push: need 0 <= shard < of, got shard=%d of=%d\n", *shard, *of)
		return 2
	}
	if *batch < 1 {
		fmt.Fprintln(stderr, "gsum push: -batch must be positive")
		return 2
	}

	s := stream.Zipf(stream.GenConfig{N: *n, M: *m, Seed: *seed}, *items, *alpha)
	updates := s.Updates()
	lo, hi := util.Cut(len(updates), *of, *shard)
	chunk := updates[lo:hi]

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	c := daemon.NewClient(*addr, nil)
	p, err := c.NewPusher(ctx, daemon.PusherConfig{MaxBatch: *batch})
	if err != nil {
		fmt.Fprintf(stderr, "gsum push: %v\n", err)
		return 1
	}
	pushErr := p.Push(chunk)
	if err := p.Close(); err != nil {
		fmt.Fprintf(stderr, "gsum push: %v\n", err)
		return 1
	}
	if pushErr != nil {
		fmt.Fprintf(stderr, "gsum push: %v\n", pushErr)
		return 1
	}
	st := p.Stats()
	fmt.Fprintf(stdout, "pushed %d updates in %d stream frame(s) (shard %d/%d of a %d-update stream) to %s\n",
		st.Acked, st.Frames, *shard, *of, len(updates), *addr)
	return 0
}

// runQuery asks a gsumd daemon for its estimate, optionally pulling and
// merging worker snapshots first (the coordinator half of the
// walkthrough).
func runQuery(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:7600", "gsumd base URL (the coordinator)")
	gname := fs.String("g", "", "catalog function for post-hoc queries (onepass, sharded and window daemons)")
	item := fs.String("item", "", "item id for countsketch point queries")
	pull := fs.String("pull", "", "comma-separated worker URLs to snapshot+merge before querying")
	if code, ok := cliflag.Parse(fs, args, stderr); !ok {
		return code
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	c := daemon.NewClient(*addr, nil)
	if *pull != "" {
		workers := strings.Split(*pull, ",")
		if err := c.PullFromContext(ctx, workers); err != nil {
			fmt.Fprintf(stderr, "gsum query: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "merged %d worker snapshot(s) into %s\n", len(workers), *addr)
	}
	params := url.Values{}
	if *gname != "" {
		params.Set("g", *gname)
	}
	if *item != "" {
		if _, err := strconv.ParseUint(*item, 10, 64); err != nil {
			fmt.Fprintf(stderr, "gsum query: bad -item %q\n", *item)
			return 2
		}
		params.Set("item", *item)
	}
	resp, err := c.EstimateContext(ctx, params)
	if err != nil {
		fmt.Fprintf(stderr, "gsum query: %v\n", err)
		return 1
	}
	out, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "gsum query: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}
