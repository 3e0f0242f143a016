// Command gsumd is the distributed g-SUM aggregation daemon: one
// estimator kind from the backend registry behind an HTTP surface (see
// internal/daemon for the API).
//
//	gsumd -backend onepass -f x^2 -n 4096 -m 1024 -seed 42 -addr :7600
//	gsumd -backend list            # print the registered kinds and exit
//
// The flags assemble a backend Spec; the registry validates it and
// builds the estimator, so gsumd itself contains no per-kind code and a
// new registry entry is immediately servable. GET /v1/config serves the
// normalized Spec and its fingerprint. Alternatively `-config spec.json`
// loads the whole Spec from a JSON file — the same shape /v1/config
// serves — overriding the individual flags; since merging daemons must
// agree on the Spec bit for bit, shipping one file to every node is the
// drift-proof way to configure a fleet:
//
//	gsumd -config spec.json -addr :7600
//
// Deployment topology: run one gsumd per traffic shard (workers) and one
// for queries (coordinator), all with IDENTICAL flags except -addr. Push
// updates to the workers (gsum push), then fold worker snapshots into
// the coordinator (gsum query -pull, or let the coordinator do it
// itself — see below). Because the sketches are linear and seeded
// identically, the coordinator's estimate equals the single-machine
// estimate over the whole stream — exactly, not approximately.
// Configuration drift is caught twice: the /v1/config Spec-fingerprint
// handshake answers 409 before any snapshot ships, and the wire
// format's fingerprint re-checks it at /v1/merge.
//
// Durability: -state-dir enables snapshot checkpointing. The daemon
// atomically persists its sketch every -checkpoint-every interval and
// once more while draining on SIGINT/SIGTERM; on boot it restores the
// checkpoint, refusing one whose Spec fingerprint differs from the
// flags (a drifted or stale state dir fails loudly instead of merging
// garbage):
//
//	gsumd -backend onepass -f x^2 -seed 42 -state-dir /var/lib/gsumd-w1
//
// Self-healing cluster: a coordinator started with -pull-from (and/or
// -heartbeat, for dynamically registered workers) runs membership
// loops — it heartbeats every worker through the fingerprint handshake,
// marks one down after consecutive misses, and periodically pulls every
// live worker's snapshot, rebuilding its aggregate from the full set so
// repeated pulls never double-count. Workers announce themselves with
// -register (POST /v1/register); a crashed worker that restarts from
// its checkpoint is re-absorbed on the next pull round:
//
//	gsumd -backend onepass -f x^2 -seed 42 -addr :7600 \
//	      -pull-from http://w1:7601,http://w2:7602 -heartbeat 2s -pull-every 10s
//
// The window kind adds a clock: run every daemon with the same -window
// (and optional -windowk), POST the tick to /v1/advance on each daemon
// as time passes, and /v1/estimate answers over the last -window ticks
// only (see internal/window for the expiry guarantees):
//
//	gsumd -backend window -f x^2 -window 8 -seed 42 -addr :7600
//
// Observability: every daemon serves GET /metrics (Prometheus text
// format — ingest totals per transport, handler latencies, checkpoint
// and membership health; see internal/metrics), GET /healthz (liveness,
// always 200 while the process can answer), and GET /readyz (readiness:
// 200 only after the checkpoint is restored and the listener is bound,
// 503 again the moment a drain begins, so load balancers stop routing
// before the daemon stops accepting). -pprof additionally mounts the
// net/http/pprof endpoints under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/window"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// serve is stubbed by tests; it blocks until the listener dies or the
// server is shut down.
var serve = func(l net.Listener, s *http.Server) error {
	return s.Serve(l)
}

// drainTimeout bounds graceful shutdown: in-flight requests get this
// long to finish before the listener is torn down hard.
const drainTimeout = 10 * time.Second

// listKinds prints the registered backend kinds with their registry
// descriptions — the `-backend list` surface, generated from the code
// so it cannot drift.
func listKinds(w io.Writer) {
	fmt.Fprintln(w, "registered backend kinds:")
	for _, k := range backend.Kinds() {
		fmt.Fprintf(w, "  %-12s %s\n", k, backend.Describe(backend.Kind(k)))
	}
}

// run parses flags, builds the daemon, and serves. It returns the
// process exit code instead of calling os.Exit, so tests can drive it.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gsumd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7600", "listen address")
	kind := fs.String("backend", "onepass",
		"estimator kind: "+strings.Join(backend.Kinds(), " | ")+` ("list" prints them and exits)`)
	fname := fs.String("f", "x^2", "catalog function (g-summing kinds; the answer to a bare /v1/estimate)")
	n := fs.Uint64("n", 1<<12, "domain size")
	m := fs.Int64("m", 1<<10, "max |frequency|")
	eps := fs.Float64("eps", 0.25, "target accuracy")
	delta := fs.Float64("delta", 0.2, "failure probability")
	lambda := fs.Float64("lambda", 0, "heaviness (0 = Theorem 13 default)")
	seed := fs.Uint64("seed", 1, "root seed; must match across daemons that merge")
	envelope := fs.Float64("envelope", 0, "envelope H(M) to size the sketch for (0 = measure from -f); /v1/estimate?g= answers any function it covers")
	rows := fs.Int("rows", 0, "countsketch rows (0 = default 5)")
	buckets := fs.Uint64("buckets", 0, "countsketch buckets (0 = default 1024)")
	topk := fs.Int("topk", 0, "countsketch tracked candidates (0 = no tracker)")
	win := fs.Uint64("window", 0, "window kind: estimate the last W ticks of the /v1/advance clock (an advance touches at most K+1 pane slots, whatever the jump or W)")
	wink := fs.Int("windowk", 0, "window kind: at most K+1 panes of about W/K ticks, K from 2 to 64 (0 = default 2)")
	stateDir := fs.String("state-dir", "", "directory for the daemon's checkpoint; enables restore-on-boot and periodic checkpointing")
	ckptEvery := fs.Duration("checkpoint-every", 15*time.Second, "checkpoint cadence when -state-dir is set (a final checkpoint is always written on graceful shutdown)")
	pullFrom := fs.String("pull-from", "", "comma-separated worker base URLs; seeds the membership registry and starts the coordinator's heartbeat + auto-pull loops")
	heartbeat := fs.Duration("heartbeat", 0, "worker heartbeat cadence; > 0 starts the membership loops even with an empty -pull-from (workers then join via -register), 0 = 2s when -pull-from is given")
	pullEvery := fs.Duration("pull-every", 0, "snapshot auto-pull cadence for the coordinator loops (0 = 10s)")
	register := fs.String("register", "", "coordinator base URL to announce this worker to on startup (POST /v1/register)")
	advertise := fs.String("advertise", "", "base URL this worker is reachable at, for -register (default http://<listen addr>)")
	streamMaxFrame := fs.Int("stream-max-frame", 0, "max /v1/stream frame payload in bytes (0 = 8 MiB)")
	streamIdle := fs.Duration("stream-idle", 0, "close a /v1/stream connection after this long without a frame (0 = 2m)")
	configPath := fs.String("config", "", "path to a Spec JSON file (the format GET /v1/config serves); overrides every estimator flag, so a fleet can share one artifact instead of matching flag lists")
	pprofOn := fs.Bool("pprof", false, "serve the net/http/pprof profiling endpoints under /debug/pprof/ (off by default: profiles expose timing detail, keep them off untrusted networks)")
	if code, ok := cliflag.Parse(fs, argv, stderr); !ok {
		return code
	}

	if *kind == "list" {
		listKinds(stdout)
		return 0
	}

	spec := backend.Spec{
		Kind: backend.Kind(*kind), G: *fname,
		Options: core.Options{N: *n, M: *m, Eps: *eps, Delta: *delta,
			Lambda: *lambda, Seed: *seed, Envelope: *envelope},
		Window: window.Config{W: *win, K: *wink},
		Rows:   *rows, Buckets: *buckets, TopK: *topk,
	}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fmt.Fprintf(stderr, "gsumd: -config: %v\n", err)
			return 1
		}
		spec, err = backend.ParseSpec(data)
		if err != nil {
			fmt.Fprintf(stderr, "gsumd: -config %s: %v\n", *configPath, err)
			return 1
		}
		// Echo the resolved identity so the startup log still answers
		// "what is this daemon running" without opening the file.
		*kind, *fname, *seed = string(spec.Kind), spec.G, spec.Options.Seed
	}
	srv, err := daemon.NewServer(spec)
	if err != nil {
		fmt.Fprintf(stderr, "gsumd: %v\n", err)
		return 1
	}

	// Restore before listening: a daemon must never serve estimates from
	// a fresh sketch while a checkpoint it should have loaded sits on
	// disk, and a drifted checkpoint must abort the boot entirely.
	var ckptPath string
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "gsumd: state dir: %v\n", err)
			return 1
		}
		ckptPath = daemon.CheckpointPath(*stateDir)
		switch err := srv.RestoreCheckpoint(ckptPath); {
		case err == nil:
			fmt.Fprintf(stdout, "gsumd: restored checkpoint %s\n", ckptPath)
		case errors.Is(err, os.ErrNotExist):
			fmt.Fprintf(stdout, "gsumd: no checkpoint in %s, starting fresh\n", *stateDir)
		default:
			fmt.Fprintf(stderr, "gsumd: %v\n", err)
			return 1
		}
	}

	srv.SetStreamLimits(*streamMaxFrame, *streamIdle)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "gsumd: %v\n", err)
		return 1
	}

	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(stderr, "gsumd: "+format+"\n", args...)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *register != "" {
		self := *advertise
		if self == "" {
			self = "http://" + l.Addr().String()
		}
		// The coordinator may simply not be up yet; registration failure
		// is a warning, not a fatal error — the operator (or a restart)
		// can re-register, and -pull-from on the coordinator side works
		// without any registration at all.
		if err := daemon.NewClient(*register, nil).RegisterContext(ctx, self); err != nil {
			logf("register at %s: %v (continuing unregistered)", *register, err)
		} else {
			fmt.Fprintf(stdout, "gsumd: registered %s at coordinator %s\n", self, *register)
		}
	}

	membershipOn := *pullFrom != "" || *heartbeat > 0
	if *pullFrom != "" {
		for _, w := range strings.Split(*pullFrom, ",") {
			if err := srv.Membership().Add(strings.TrimSpace(w)); err != nil {
				fmt.Fprintf(stderr, "gsumd: %v\n", err)
				return 1
			}
		}
	}
	if membershipOn {
		srv.Membership().Start(daemon.MembershipConfig{
			Heartbeat: *heartbeat, PullEvery: *pullEvery, Logf: logf})
		fmt.Fprintf(stdout, "gsumd: membership loops running (%d seeded workers)\n",
			len(srv.Membership().Members()))
	}

	var ckpt *daemon.Checkpointer
	if ckptPath != "" {
		ckpt = daemon.StartCheckpointer(srv, ckptPath, *ckptEvery, logf)
	}

	// The daemon serves through an http.Server with bounded read/write
	// windows (a wedged peer cannot pin a handler goroutine forever) and
	// drains gracefully on SIGINT/SIGTERM: stop accepting, let in-flight
	// requests AND hijacked /v1/stream connections finish (up to
	// drainTimeout each), then write the final checkpoint so an orderly
	// restart loses nothing a client holds an ack for.
	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}()

	// Ready only now: the checkpoint (if any) is restored, membership and
	// checkpointing are running, and the listener is bound. /readyz flips
	// to 200 here and back to 503 the moment the shutdown drain begins.
	srv.SetReady(true)
	fmt.Fprintf(stdout, "gsumd: backend=%s g=%s seed=%d fingerprint=%#x listening on %s\n",
		*kind, *fname, *seed, srv.Spec().Fingerprint(), l.Addr())
	err = serve(l, httpSrv)
	stopSignals()

	code := 0
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "gsumd: %v\n", err)
		code = 1
	}
	// Hijacked /v1/stream connections are invisible to
	// httpSrv.Shutdown; drain them here — every frame acked by the loop
	// lands before the final checkpoint below, so an ack really is a
	// durability receipt.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
	if derr := srv.DrainStreams(drainCtx); derr != nil {
		fmt.Fprintf(stderr, "gsumd: stream drain: %v\n", derr)
	}
	cancelDrain()
	srv.Membership().Stop()
	if ckpt != nil {
		if cerr := ckpt.Stop(); cerr != nil {
			fmt.Fprintf(stderr, "gsumd: final checkpoint: %v\n", cerr)
			code = 1
		} else {
			fmt.Fprintf(stdout, "gsumd: final checkpoint written to %s\n", ckptPath)
		}
	}
	if errors.Is(err, http.ErrServerClosed) && code == 0 {
		fmt.Fprintln(stdout, "gsumd: drained")
	}
	return code
}
