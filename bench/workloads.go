package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The fixed configuration every workload measures: g = x^2 over a 2^20
// domain (the existing bench options scaled up; ~4.9 MB of counters, 20
// levels x 7 rows), fed in batches of 4096.
const (
	gName     = "x^2"
	batchSize = 4096
)

var sketchOptions = core.Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7}

// workloadDef is one benchmark workload: which generator makes the
// stream, and through which door the system ingests it.
type workloadDef struct {
	name string
	why  string
	gen  workload.Generator
	// items is the generator's working set: 2^19 uniform items make
	// nearly every update in a batch distinct and push the counter set
	// past the L2; 2^16 zipf items make batches mostly duplicates.
	items   int
	kind    backend.Kind
	workers int
	// daemon: ingest through Pusher -> gSIF frame -> /v1/stream.
	daemon bool
	// door is the ladder rung (see ladder.go) that is this workload's own
	// way in: the one a traced run must add up to.
	door string
	// mixed: while the daemon ingests, its Checkpointer writes state and
	// a reader goroutine queries and scrapes it on a schedule.
	mixed bool
}

var workloads = []workloadDef{
	{name: "lib-uniform", gen: workload.Uniform{}, items: 1 << 19, kind: backend.KindOnePass, door: "backend.update",
		why: "serial library ingest of near-distinct batches: all time in xhash/sketch/heavy/recursive/core, none in hotpath/wire/daemon"},
	{name: "sharded-uniform", gen: workload.Uniform{}, items: 1 << 19, kind: backend.KindSharded, workers: 2, door: "hotpath.process",
		why: "same stream through the ring-fed sharded kind on 2 shards: only hotpath differs from lib-uniform"},
	{name: "daemon-stream", gen: workload.Zipf{Alpha: 1.1}, items: 1 << 16, kind: backend.KindOnePass, daemon: true, door: "daemon.stream",
		why: "write-only Pusher stream of skewed batches: cheap apply, so frame/socket/ack/lock have their largest share"},
	{name: "daemon-mixed", gen: workload.Zipf{Alpha: 1.1}, items: 1 << 16, kind: backend.KindOnePass, daemon: true, mixed: true, door: "daemon.mixed",
		why: "same daemon with open-loop estimates, scrapes and checkpoints beside ingest: reads and writes share Server.mu"},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func (w workloadDef) spec() backend.Spec {
	return backend.Spec{Kind: w.kind, G: gName, Options: sketchOptions, Workers: w.workers}
}

// scale sizes a run. fullScale is what BENCHMARK.json measures; the
// smoke test shrinks it.
type scale struct {
	updates   int // stream length: one pass
	rounds    int // freshly set-up subjects an untraced run measures in turn
	estimates int // closed-loop estimate samples after a round's last pass
	reads     int // estimate samples behind each read-path median of the traced run
}

var fullScale = scale{updates: 1 << 20, rounds: 5, estimates: 40, reads: 25}

// pass is one direction of the stream: +S or -S. Both forms are kept
// because backend.Process takes a Stream and every other door a slice.
type pass struct {
	st  *stream.Stream
	ups []stream.Update
}

// streams is the generated input and what is known about it without the
// system under test.
type streams struct {
	plus, minus pass
	exact       float64 // sum of g over the exact frequency vector of S
	distinct    int
	// batchDistinct[k] is the number of distinct items in batch k, and
	// dupRatio the share of updates repeating an item within their own
	// batch: what duplicate aggregation saves.
	batchDistinct []int
	dupRatio      float64
	genTime       time.Duration
}

func generate(w workloadDef, sc scale, seed uint64) streams {
	t0 := time.Now()
	plus := w.gen.Generate(workload.Config{N: sketchOptions.N, Items: w.items, Length: sc.updates, Seed: seed})
	minus := stream.New(plus.N())
	for _, u := range plus.Updates() {
		minus.Add(u.Item, -u.Delta)
	}
	s := streams{plus: pass{plus, plus.Updates()}, minus: pass{minus, minus.Updates()}, genTime: time.Since(t0)}
	vec := plus.Vector()
	s.exact = vec.F2()
	s.distinct = vec.F0()
	distinct := 0
	seen := make(map[uint64]struct{}, batchSize)
	_ = forBatches(plus.Updates(), func(b []stream.Update) error {
		clear(seen)
		for _, u := range b {
			seen[u.Item] = struct{}{}
		}
		s.batchDistinct = append(s.batchDistinct, len(seen))
		distinct += len(seen)
		return nil
	})
	s.dupRatio = 1 - float64(distinct)/float64(plus.Len())
	return s
}

// forBatches calls fn on consecutive batchSize slices of ups.
func forBatches(ups []stream.Update, fn func([]stream.Update) error) error {
	for lo := 0; lo < len(ups); lo += batchSize {
		hi := lo + batchSize
		if hi > len(ups) {
			hi = len(ups)
		}
		if err := fn(ups[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// subject is the system under test behind the door a workload uses.
type subject interface {
	// ingest feeds one pass and returns once it is applied (daemon:
	// acked).
	ingest(p pass) error
	estimate() (float64, error)
	spaceBytes() (int, error)
	snapshot() ([]byte, error)
	close() error
}

// libSubject is an estimator opened through the registry. Kind sharded
// takes whole passes through backend.Process (the ring-fed path); every
// other kind takes serial UpdateBatch calls.
type libSubject struct {
	est     backend.Estimator
	process bool
}

func openLib(spec backend.Spec) (*libSubject, error) {
	est, err := backend.Open(spec)
	if err != nil {
		return nil, err
	}
	return &libSubject{est: est, process: spec.Kind == backend.KindSharded}, nil
}

func (l *libSubject) ingest(p pass) error {
	if l.process {
		return backend.Process(l.est, p.st)
	}
	return forBatches(p.ups, func(b []stream.Update) error {
		l.est.UpdateBatch(b)
		return nil
	})
}

func (l *libSubject) estimate() (float64, error) { return l.est.Estimate(), nil }
func (l *libSubject) spaceBytes() (int, error)   { return l.est.SpaceBytes(), nil }
func (l *libSubject) snapshot() ([]byte, error)  { return l.est.MarshalBinary() }
func (l *libSubject) close() error               { return nil }

// daemonSubject is an in-process gsumd on a loopback listener with one
// stream Pusher session open against it, as workload.RunBench and
// internal/soak run theirs.
type daemonSubject struct {
	srv    *daemon.Server
	http   *http.Server
	served chan struct{}
	base   string
	client *daemon.Client
	pusher *daemon.Pusher
	pushed uint64
}

func openDaemon(spec backend.Spec) (*daemonSubject, error) {
	srv, err := daemon.NewServer(spec)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemonSubject{srv: srv, http: &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(d.served)
		_ = d.http.Serve(ln) // always http.ErrServerClosed after close()
	}()
	srv.SetReady(true)
	d.client = daemon.NewClient(d.base, nil)
	d.pusher, err = d.client.NewPusher(context.Background(), daemon.PusherConfig{Stream: true, MaxBatch: batchSize})
	if err != nil {
		_ = d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemonSubject) ingest(p pass) error {
	if err := d.pusher.Push(p.ups); err != nil {
		return err
	}
	d.pushed += uint64(len(p.ups))
	return d.pusher.Flush()
}

func (d *daemonSubject) estimate() (float64, error) {
	res, err := d.client.Estimate(nil)
	if err != nil {
		return 0, err
	}
	v, ok := res.Value()
	if !ok {
		return 0, fmt.Errorf("daemon estimate carried no value")
	}
	return v, nil
}

// scrape fetches /metrics over HTTP and returns the body.
func (d *daemonSubject) scrape() ([]byte, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (d *daemonSubject) spaceBytes() (int, error) {
	v, err := registryValue(d.srv, "gsumd_space_bytes")
	return int(v), err
}

func (d *daemonSubject) snapshot() ([]byte, error) { return d.client.Snapshot() }

// close ends the push session, drains the stream connection and stops
// the listener, waiting for each goroutine it started.
func (d *daemonSubject) close() error {
	var first error
	if d.pusher != nil {
		first = d.pusher.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.DrainStreams(ctx); err != nil && first == nil {
		first = err
	}
	if err := d.http.Close(); err != nil && first == nil {
		first = err
	}
	<-d.served
	return first
}

// fixture is one completed set-up: the input, the oracle's answer, and
// the opened, warmed subject.
type fixture struct {
	streams
	sub      subject
	openTime time.Duration
	heapMB   float64 // live heap the opened, warmed subject holds
	stateDir string  // daemon-mixed: where checkpoints go
}

// setUp is everything setup_s covers: generate S and -S, the exact
// oracle, open the subject (daemon: listen and
// open the push session) and ingest pass 0 untimed, so trackers, caches,
// the connection and lazy set-up are warm before anything is timed.
func setUp(w workloadDef, sc scale, seed uint64) (*fixture, error) {
	fx := &fixture{streams: generate(w, sc, seed)}
	var err error
	before := liveHeap()
	t0 := time.Now()
	if w.daemon {
		fx.sub, err = openDaemon(w.spec())
	} else {
		fx.sub, err = openLib(w.spec())
	}
	if err != nil {
		return nil, err
	}
	fx.openTime = time.Since(t0)
	if err := fx.sub.ingest(fx.plus); err != nil {
		_ = fx.sub.close()
		return nil, fmt.Errorf("pass 0: %w", err)
	}
	fx.heapMB = float64(liveHeap()-before) / 1e6
	if w.mixed {
		if fx.stateDir, err = newStateDir(); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// newStateDir makes a fresh checkpoint directory under outDir, so that
// nothing is written outside the checkout.
func newStateDir() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "state-")
}

func (fx *fixture) close() error {
	if fx.stateDir != "" {
		_ = os.RemoveAll(fx.stateDir)
	}
	return fx.sub.close()
}

func (fx *fixture) checkpointPath() string { return filepath.Join(fx.stateDir, daemon.CheckpointName) }
