package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/daemon"
	"repro/internal/metrics"
)

// outDir receives span files and the checkpoint state directories. It
// is relative to the working directory, which is bench/ for `go run`
// and run.sh alike; the smoke test points it at a temporary directory.
var outDir = "out"

// Cadences of the mixed workload.
const (
	estimateEvery   = 20 * time.Millisecond
	scrapeEvery     = 500 * time.Millisecond
	checkpointEvery = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: what -json appends and -compare
// reads.
type result struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Host     host              `json:"host"`
	Passes   int               `json:"passes"`
	Metrics  map[string]metric `json:"metrics"`
	// Samples is the sample count behind a traced run's percentiles.
	Samples map[string]int `json:"samples,omitempty"`
	// IngestQuartiles are Q1, median, Q3 of the per-pair Mupd/s, over
	// given time as ingest_mupd_per_s is; IngestWallMupd is the run's
	// throughput over wall-clock time, steal and all.
	IngestQuartiles [3]float64 `json:"ingest_quartiles_mupd_per_s"`
	IngestWallMupd  float64    `json:"ingest_wall_mupd_per_s,omitempty"`
	// Rounds is what each freshly set-up subject of an untraced run
	// gave, with the sample counts behind its figures.
	Rounds []roundResult `json:"rounds,omitempty"`
	// EstimateP50Ms and EstimateP90Ms are the medians over the rounds of
	// the round's estimate latency percentiles. They are reported, not
	// gated: on the shared reference host they did not repeat within a
	// quarter (see README.md).
	EstimateP50Ms float64 `json:"estimate_p50_ms,omitempty"`
	EstimateP90Ms float64 `json:"estimate_p90_ms,omitempty"`
	RelErr        float64 `json:"rel_err"`
	// RefIdentical: the final estimate equals, bit for bit, that of a
	// fresh serial one-pass estimator that saw S once.
	RefIdentical bool     `json:"ref_identical"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Failures     []string `json:"failures,omitempty"`
}

type roundResult struct {
	SetupS float64 `json:"setup_s"` // given time
	// IngestMupd is the round's updates over the given time of its pairs,
	// IngestWallMupd the same over their wall-clock time.
	IngestMupd     float64 `json:"ingest_mupd_per_s"`
	IngestWallMupd float64 `json:"ingest_wall_mupd_per_s"`
	// PairMupd is each pair's own throughput over its given time, in the
	// order they ran.
	PairMupd  []float64 `json:"pair_mupd_per_s"`
	P50Ms     float64   `json:"estimate_p50_ms"`
	P90Ms     float64   `json:"estimate_p90_ms"`
	Estimates int       `json:"estimates"`
	HeapMB    float64   `json:"state_heap_mb"`
	// StolenShare is the share of the round's CPU time (all CPUs) that
	// the hypervisor gave to someone else.
	StolenShare float64 `json:"stolen_share"`
}

func (r *result) set(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric emitted twice: " + name)
	}
	r.Metrics[name] = metric{v, unit}
}

// ops counts operations attempted and failed: pushes, flushes,
// estimates, scrapes, checkpoints and end-of-run checks. The reader
// goroutine shares it with the ingest loop.
type ops struct {
	mu        sync.Mutex
	attempted int
	failures  []string
}

// did records one attempted operation and whether it failed.
func (o *ops) did(what string, err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failures = append(o.failures, what+": "+err.Error())
	}
	return err == nil
}

// succeeded records n operations that were attempted and did not fail.
func (o *ops) succeeded(n int) {
	o.mu.Lock()
	o.attempted += n
	o.mu.Unlock()
}

// check records one end-of-run correctness check.
func (o *ops) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	o.did("check", err)
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// stolen returns how much CPU time the hypervisor has so far taken from
// this machine (the steal column of /proc/stat, in 1/100 s), or 0 where
// the kernel does not say.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stopwatch measures given time: wall-clock time less the time the
// hypervisor had this machine's CPUs run someone else. On the shared
// reference host that share swings between 0 and a quarter by the
// minute, and wall-clock throughput swings with it (ten runs of one
// commit spread 13-28%, and 4-11% once the stolen time is taken out);
// what is left is what the program did with the CPU it was given.
type stopwatch struct {
	start  time.Time
	stolen time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), stolen()} }

// stop returns the wall-clock and the given time since startWatch. Steal
// is summed over the CPUs, so work that keeps several CPUs busy side by
// side (lanes of them) loses a 1/lanes share of it; serial work and a
// pipeline, where a stall anywhere stalls the whole, lose all of it. The
// given time is held to at least a quarter of the wall-clock time, so
// that no miscounted tick can make it zero.
func (w stopwatch) stop(lanes int) (wall, given time.Duration) {
	wall = time.Since(w.start)
	given = wall - (stolen()-w.stolen)/time.Duration(max(lanes, 1))
	return wall, max(given, wall/4)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mupdPerS(updates int, d time.Duration) float64 { return float64(updates) / d.Seconds() / 1e6 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readerLog is what the mixed workload's reader goroutine measured.
type readerLog struct {
	estimateMs []float64  // from the instant each call was due
	lateMs     []float64  // how long after that instant it started
	ops        []readerOp // every operation, for the tracer
}

type readerOp struct {
	name       string
	start, end time.Time
}

// mixedLoad is what runs beside ingest in the mixed workload: the
// daemon's own Checkpointer, as gsumd runs it, and one reader goroutine
// that queries and scrapes on an open loop.
type mixedLoad struct {
	d    *daemonSubject
	ckpt *daemon.Checkpointer
	stop chan struct{}
	done chan *readerLog
}

func startMixedLoad(d *daemonSubject, ckptPath string, o *ops) *mixedLoad {
	m := &mixedLoad{d: d, stop: make(chan struct{}), done: make(chan *readerLog)}
	m.ckpt = daemon.StartCheckpointer(d.srv, ckptPath, checkpointEvery, func(format string, args ...interface{}) {
		o.did("checkpoint", fmt.Errorf(format, args...)) // called for failed writes only
	})
	go func() { m.done <- runReader(d, o, m.stop) }()
	return m
}

// finish stops the reader and the Checkpointer, whose Stop writes one
// last checkpoint, and counts the checkpoints that succeeded.
func (m *mixedLoad) finish(o *ops) *readerLog {
	close(m.stop)
	log := <-m.done
	o.did("checkpoint", m.ckpt.Stop())
	written, err := registryValue(m.d.srv, "gsumd_checkpoint_writes_total", metrics.Label{Key: "result", Value: "ok"})
	if o.did("registry", err) {
		o.succeeded(int(written) - 1) // Stop's write is counted above
	}
	return log
}

// runReader queries d every estimateEvery and scrapes it every
// scrapeEvery until stop closes. It is an open loop: an estimate is
// timed from the instant it was due, so one that waits behind a scrape,
// or behind the state lock, carries that wait.
func runReader(d *daemonSubject, o *ops, stop <-chan struct{}) *readerLog {
	log := &readerLog{}
	start := time.Now()
	const estimate, scrape = 0, 1
	due := [2]time.Time{start, start.Add(scrapeEvery)}
	every := [2]time.Duration{estimateEvery, scrapeEvery}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		next := estimate
		if due[scrape].Before(due[estimate]) {
			next = scrape
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Until(due[next]))
		select {
		case <-stop:
			return log
		case <-timer.C:
		}
		t0 := time.Now()
		name := "daemon.estimate_http"
		if next == estimate {
			_, err := d.estimate()
			if o.did("estimate", err) {
				log.estimateMs = append(log.estimateMs, ms(time.Since(due[estimate])))
				log.lateMs = append(log.lateMs, ms(t0.Sub(due[estimate])))
			}
		} else {
			name = "daemon.scrape"
			_, err := d.scrape()
			o.did("scrape", err)
		}
		log.ops = append(log.ops, readerOp{name, t0, time.Now()})
		due[next] = due[next].Add(every[next])
	}
}

// registryValue reads the one sample of name from a Server's registry,
// through the text format a scrape would see.
func registryValue(srv *daemon.Server, name string, labels ...metrics.Label) (float64, error) {
	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		return 0, err
	}
	sc, err := metrics.Parse(&buf)
	if err != nil {
		return 0, err
	}
	v, ok := sc.Value(name, labels...)
	if !ok {
		return 0, fmt.Errorf("registry has no single %s sample", name)
	}
	return v, nil
}

// settledValue reads a registry counter the daemon bumps just after it
// writes an ack, which the client can see first: it waits (briefly) for
// the counter to reach want and returns what it last read.
func settledValue(srv *daemon.Server, name string, want float64, labels ...metrics.Label) (float64, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := registryValue(srv, name, labels...)
		if err != nil || v == want || time.Now().After(deadline) {
			return v, err
		}
		time.Sleep(time.Millisecond)
	}
}

// timed is the measured section of a run: the alternating -S, +S passes
// and what the process spent on them.
type timed struct {
	pairMupd    []float64 // per pair: its updates / its given time, in Mupd/s
	wall, given time.Duration
	updates     int
	allocB      uint64
	mallocs     uint64
	gcCycles    uint32
	cpu         time.Duration
	reader      *readerLog // mixed only
}

// runPasses alternates -S and +S on the warmed subject for at least
// budget (and at least one pair), so the state stays bounded,
// the timed path carries turnstile deletes, and the run ends holding
// exactly one copy of S. Throughput is taken per pair because a delete
// pass and an insert pass need not cost the same.
func runPasses(w workloadDef, fx *fixture, budget time.Duration, o *ops) *timed {
	t := &timed{}
	var mixed *mixedLoad
	if w.mixed {
		mixed = startMixedLoad(fx.sub.(*daemonSubject), fx.checkpointPath(), o)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start) < budget; pair++ {
		sw := startWatch()
		o.did("ingest", fx.sub.ingest(fx.minus))
		o.did("ingest", fx.sub.ingest(fx.plus))
		wall, given := sw.stop(w.workers)
		n := len(fx.minus.ups) + len(fx.plus.ups)
		t.pairMupd = append(t.pairMupd, mupdPerS(n, given))
		t.wall, t.given, t.updates = t.wall+wall, t.given+given, t.updates+n
	}
	t.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if w.mixed {
		t.reader = mixed.finish(o)
	}
	t.allocB = m1.TotalAlloc - m0.TotalAlloc
	t.mallocs = m1.Mallocs - m0.Mallocs
	t.gcCycles = m1.NumGC - m0.NumGC
	return t
}

// sampleEstimates makes n closed-loop estimate calls and returns their
// latencies in ms and the last value.
func sampleEstimates(sub subject, n int, o *ops) (lat []float64, last float64) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := sub.estimate()
		if o.did("estimate", err) {
			lat = append(lat, ms(time.Since(t0)))
			last = v
		}
	}
	return lat, last
}

// runEndToEnd is the untraced run behind every end-to-end metric. It is
// made of sc.rounds rounds, each on a freshly set-up subject: set up
// (timed), timed passes for its share of the seconds, estimate samples,
// checks, close. One estimator instance runs a tenth faster or slower
// than the next, by where its counters landed in memory, so a run
// measures five. Times are given times (see stopwatch). Throughput is
// all the timed updates of the run over all their given time: a mean,
// because the host's speed flips within seconds and a mean over twenty
// seconds repeats better than any quantile of ten two-second pairs
// (A/B on forty runs: see README.md). The other timings are the median
// over the rounds of the round's own figure.
func runEndToEnd(w workloadDef, sc scale, seed uint64, seconds int) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Host: thisHost(),
		Metrics: map[string]metric{}, Samples: map[string]int{}}
	o := &ops{}
	budget := time.Duration(seconds) * time.Second / time.Duration(sc.rounds)
	var pairMupd []float64
	var all timed
	var final, ref float64
	for round := 0; round < sc.rounds; round++ {
		sw := startWatch()
		fx, err := setUp(w, sc, seed)
		if err != nil {
			return nil, fmt.Errorf("round %d: set-up: %w", round+1, err)
		}
		_, setup := sw.stop(1)
		rr := roundResult{SetupS: setup.Seconds(), HeapMB: fx.heapMB}
		t := runPasses(w, fx, budget, o)
		pairMupd = append(pairMupd, t.pairMupd...)
		all.wall, all.given, all.updates = all.wall+t.wall, all.given+t.given, all.updates+t.updates
		res.Passes += 2 * len(t.pairMupd)
		var lat []float64
		if w.mixed {
			// The open-loop calls made during ingest are the samples; one
			// more call on the now idle daemon gives the final value.
			lat = t.reader.estimateMs
			_, final = sampleEstimates(fx.sub, 1, o)
		} else {
			lat, final = sampleEstimates(fx.sub, sc.estimates, o)
		}
		rr.IngestMupd, rr.IngestWallMupd, rr.PairMupd = mupdPerS(t.updates, t.given), mupdPerS(t.updates, t.wall), t.pairMupd
		rr.P50Ms, rr.P90Ms, rr.Estimates = median(lat), quantile(lat, 0.9), len(lat)
		wall, given := sw.stop(1)
		rr.StolenShare = float64(wall-given) / float64(wall) / float64(runtime.NumCPU())
		res.Rounds = append(res.Rounds, rr)
		if round == 0 {
			ref, err = serialReference(&fx.streams)
			o.did("reference", err)
		}
		checkState(fx, final, ref, o)
		if round == sc.rounds-1 {
			space, err := fx.sub.spaceBytes()
			o.did("space", err)
			snap, err := fx.sub.snapshot()
			o.did("snapshot", err)
			res.set("space_bytes", float64(space), "B")
			res.set("snapshot_bytes", float64(len(snap)), "B")
			res.RelErr = math.Abs(final-fx.exact) / fx.exact
			checkLast(w, fx, final, o)
		}
		o.did("close", fx.close())
	}

	overRounds := func(f func(roundResult) float64) float64 {
		xs := make([]float64, len(res.Rounds))
		for i, rr := range res.Rounds {
			xs[i] = f(rr)
		}
		return median(xs)
	}
	res.RefIdentical = final == ref
	res.IngestQuartiles = [3]float64{quantile(pairMupd, 0.25), median(pairMupd), quantile(pairMupd, 0.75)}
	res.EstimateP50Ms = overRounds(func(r roundResult) float64 { return r.P50Ms })
	res.EstimateP90Ms = overRounds(func(r roundResult) float64 { return r.P90Ms })
	res.set("setup_s", overRounds(func(r roundResult) float64 { return r.SetupS }), "s")
	res.set("ingest_mupd_per_s", mupdPerS(all.updates, all.given), "Mupd/s")
	res.IngestWallMupd = mupdPerS(all.updates, all.wall)
	res.set("accuracy", 1-res.RelErr, "ratio")
	res.set("state_heap_mb", overRounds(func(r roundResult) float64 { return r.HeapMB }), "MB")
	res.Attempted, res.Failed, res.Failures = o.attempted, len(o.failures), o.failures
	return res, nil
}

// serialReference is the estimate of a fresh serial one-pass estimator
// that saw S once: what every workload's end state should estimate.
func serialReference(in *streams) (float64, error) {
	ref, err := openLib(backend.Spec{Kind: backend.KindOnePass, G: gName, Options: sketchOptions})
	if err != nil {
		return 0, err
	}
	if err := ref.ingest(in.plus); err != nil {
		return 0, err
	}
	return ref.estimate()
}

// refTolerance bounds how far a correct end state may estimate from the
// serial reference. Counters are linear, so after the -S,+S pairs they
// equal those of one serial pass over S exactly; the top-k candidate
// trackers do not (which of many tied candidates a full tracker keeps
// depends on the order it saw them, and shards fill theirs at other
// moments than a serial estimator). Seeds 1-10 stayed within 0.3%
// (onepass) and 2% (sharded); many agree bit for bit, and report() says
// whether this run did.
const refTolerance = 0.05

// checkState holds a round's end state to what is known without the
// subject: the exact oracle, the serial reference, and the
// acknowledgement counts.
func checkState(fx *fixture, final, ref float64, o *ops) {
	relErr := math.Abs(final-fx.exact) / fx.exact
	o.check(relErr <= sketchOptions.Eps, "final estimate %v is %.4f off the exact %v, beyond eps %v",
		final, relErr, fx.exact, sketchOptions.Eps)
	o.check(math.Abs(final-ref) <= refTolerance*ref, "final estimate %v is over %v off the serial reference %v",
		final, refTolerance, ref)
	d, ok := fx.sub.(*daemonSubject)
	if !ok {
		return
	}
	st := d.pusher.Stats()
	o.check(st.Acked == d.pushed, "Pusher acked %d of %d updates pushed", st.Acked, d.pushed)
	acked, err := settledValue(d.srv, "gsumd_stream_acked_updates_total", float64(d.pushed))
	if o.did("registry", err) {
		o.check(uint64(acked) == d.pushed, "daemon acked %d of %d updates pushed", uint64(acked), d.pushed)
	}
}

// checkLast runs the costlier checks on the last round's subject. Mixed:
// the last checkpoint must restore into a fresh daemon that answers as
// the live one does. Then linearity, exactly: one more -S must leave every
// counter zero, and an estimator whose counters are all zero estimates
// exactly 0.
func checkLast(w workloadDef, fx *fixture, final float64, o *ops) {
	if w.mixed {
		checkRestore(w, fx, final, o)
	}
	if o.did("ingest", fx.sub.ingest(fx.minus)) {
		zero, err := fx.sub.estimate()
		if o.did("estimate", err) {
			o.check(zero == 0, "after -S the subject estimates %v, not 0: its counters are not those of S", zero)
		}
	}
}

// checkRestore restores the Checkpointer's last checkpoint, written when
// the timed passes ended with the daemon holding S.
func checkRestore(w workloadDef, fx *fixture, final float64, o *ops) {
	fresh, err := daemon.NewServer(w.spec())
	if !o.did("restore", err) {
		return
	}
	if !o.did("restore", fresh.RestoreCheckpoint(fx.checkpointPath())) {
		return
	}
	restored, err := registryValue(fresh, "gsumd_estimate")
	if o.did("restore", err) {
		o.check(restored == final, "restored daemon estimates %v, the live one %v", restored, final)
	}
}
