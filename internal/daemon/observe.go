package daemon

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/metrics"
	"repro/internal/util"
)

// The daemon's observability surface: every Server carries a
// metrics.Registry served at GET /metrics in the Prometheus text
// format, plus GET /healthz (liveness: the process is up) and GET
// /readyz (readiness: restored + listening + not draining). All
// instruments are registered once in newServerMetrics, so the full
// metric catalog is this file; the hot-path hooks (ingest counters, the
// batch-size histogram, stream acks) are single atomic operations and
// stay within benchmark noise of the uninstrumented path (the
// repository benchmark's daemon.apply rung against backend.update).
//
// Scrape-computed gauges (goroutines, heap, the estimate itself, the
// window clock) are GaugeFuncs: they cost nothing between scrapes and
// read the live value — taking the state lock briefly — only when
// /metrics is actually asked.

// Transport labels for the ingest counters. Every path that applies
// updates to the estimator counts under exactly one of these.
const (
	transportJSON      = "json"      // POST /v1/ingest
	transportStream    = "stream"    // /v1/stream frames
	transportInProcess = "inprocess" // Server.IngestBatch (embedders, benchmarks)
)

// serverMetrics holds every instrument a Server updates. Fields are
// grouped by subsystem; names follow the Prometheus conventions
// (gsumd_ prefix, _total for counters, unit suffixes).
type serverMetrics struct {
	reg *metrics.Registry

	// Ingest, per transport.
	ingestUpdates map[string]*metrics.Counter
	ingestBatches map[string]*metrics.Counter
	batchSize     *metrics.Histogram

	// Query/merge/advance handler latencies.
	mergeSeconds    *metrics.Histogram
	estimateSeconds *metrics.Histogram
	advanceSeconds  *metrics.Histogram

	// Checkpoint durability.
	checkpointSeconds *metrics.Histogram
	checkpointBytes   *metrics.Gauge
	checkpointOK      *metrics.Counter
	checkpointErr     *metrics.Counter

	// Streaming ingest connections.
	streamConns      *metrics.Gauge
	streamConnsTotal *metrics.Counter
	ackedFrames      *metrics.Counter
	ackedUpdates     *metrics.Counter
	streamRejects    *metrics.Counter

	// Membership (coordinator side).
	membersAlive      *metrics.Gauge
	membersTotal      *metrics.Gauge
	memberUp          *metrics.Counter
	memberDown        *metrics.Counter
	pullOK            *metrics.Counter
	pullErr           *metrics.Counter
	rebuildSeconds    *metrics.Histogram
	aggregateIngested *metrics.Gauge
}

// newServerMetrics registers the full catalog against a fresh registry.
// s is only captured by the GaugeFuncs, which run at scrape time.
func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.New()
	m := &serverMetrics{
		reg:           reg,
		ingestUpdates: make(map[string]*metrics.Counter),
		ingestBatches: make(map[string]*metrics.Counter),
	}
	for _, tr := range []string{transportJSON, transportStream, transportInProcess} {
		l := metrics.Label{Key: "transport", Value: tr}
		m.ingestUpdates[tr] = reg.Counter("gsumd_ingest_updates_total",
			"updates applied to the estimator since boot, by transport", l)
		m.ingestBatches[tr] = reg.Counter("gsumd_ingest_batches_total",
			"batches (JSON requests, stream frames, in-process calls) applied, by transport", l)
	}
	m.batchSize = reg.Histogram("gsumd_ingest_batch_size",
		"updates per applied batch, across all transports", metrics.SizeBuckets)

	m.mergeSeconds = reg.Histogram("gsumd_merge_seconds",
		"time to decode and fold one /v1/merge snapshot under the state lock", nil)
	m.estimateSeconds = reg.Histogram("gsumd_estimate_seconds",
		"time to answer one /v1/estimate query under the state lock", nil)
	m.advanceSeconds = reg.Histogram("gsumd_advance_seconds",
		"time to move the window clock for one /v1/advance", nil)

	m.checkpointSeconds = reg.Histogram("gsumd_checkpoint_seconds",
		"time for one atomic checkpoint write (marshal + temp file + fsync + rename)", nil)
	m.checkpointBytes = reg.Gauge("gsumd_checkpoint_bytes",
		"size of the last successfully written checkpoint file")
	m.checkpointOK = reg.Counter("gsumd_checkpoint_writes_total",
		"checkpoint write attempts by result", metrics.Label{Key: "result", Value: "ok"})
	m.checkpointErr = reg.Counter("gsumd_checkpoint_writes_total",
		"checkpoint write attempts by result", metrics.Label{Key: "result", Value: "error"})

	m.streamConns = reg.Gauge("gsumd_stream_connections",
		"live /v1/stream connections")
	m.streamConnsTotal = reg.Counter("gsumd_stream_connections_total",
		"/v1/stream connections accepted since boot")
	m.ackedFrames = reg.Counter("gsumd_stream_acked_frames_total",
		"stream frames acknowledged AFTER their batch was applied (an ack is a durability receipt)")
	m.ackedUpdates = reg.Counter("gsumd_stream_acked_updates_total",
		"updates inside acknowledged stream frames; equals the stream-transport ingest counter once a session quiesces")
	m.streamRejects = reg.Counter("gsumd_stream_rejected_frames_total",
		"stream frames refused (bad fingerprint, domain violation, read errors)")

	m.membersAlive = reg.Gauge("gsumd_members_alive",
		"workers currently marked alive in the membership registry")
	m.membersTotal = reg.Gauge("gsumd_members",
		"workers in the membership registry, alive or not")
	m.memberUp = reg.Counter("gsumd_member_transitions_total",
		"membership state transitions", metrics.Label{Key: "to", Value: "up"})
	m.memberDown = reg.Counter("gsumd_member_transitions_total",
		"membership state transitions", metrics.Label{Key: "to", Value: "down"})
	m.pullOK = reg.Counter("gsumd_pull_rounds_total",
		"auto-pull rounds by result", metrics.Label{Key: "result", Value: "ok"})
	m.pullErr = reg.Counter("gsumd_pull_rounds_total",
		"auto-pull rounds by result", metrics.Label{Key: "result", Value: "error"})
	m.rebuildSeconds = reg.Histogram("gsumd_rebuild_seconds",
		"time to rebuild the aggregate from all retained snapshots (replace, not accumulate)", nil)
	m.aggregateIngested = reg.Gauge("gsumd_aggregate_ingested_updates",
		"sum of worker-reported ingest totals folded into the aggregate at the last rebuild; "+
			"monotone while workers only ingest, because a rebuild covers every retained snapshot exactly once")

	// Scrape-time gauges. Process-level first.
	start := time.Now()
	reg.GaugeFunc("gsumd_uptime_seconds", "seconds since the Server was built",
		func() float64 { return time.Since(start).Seconds() })
	reg.GaugeFunc("gsumd_goroutines", "live goroutines in the process",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("gsumd_heap_alloc_bytes", "bytes of live heap objects (runtime.MemStats.HeapAlloc)",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("gsumd_ready", "1 once the daemon is restored, listening, and not draining",
		func() float64 {
			if s.Ready() {
				return 1
			}
			return 0
		})

	// Estimator-level gauges take the state lock for the duration of one
	// read — scrape cadence, not hot path.
	reg.GaugeFunc("gsumd_ingested_updates", "the daemon's ingest counter (includes updates restored from a checkpoint)",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.ingests)
		})
	reg.GaugeFunc("gsumd_space_bytes", "bytes of sketch state held by the estimator",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.est.SpaceBytes())
		})
	reg.GaugeFunc("gsumd_estimate", "the current estimate, as a bare /v1/estimate would answer it (NaN when it cannot)",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			res, err := s.estimate(url.Values{})
			if err != nil {
				return math.NaN()
			}
			switch {
			case res.Estimate != nil:
				return *res.Estimate
			case res.F2 != nil:
				return *res.F2
			case res.WeightSum != nil:
				return *res.WeightSum
			}
			return math.NaN()
		})
	if _, ok := s.est.(backend.Layered); ok {
		// The depth rule's assumption, live: tracked below capacity on the
		// deepest level means it holds its whole sub-universe. s.est is
		// read under the lock: a restore or a rebuild swaps it.
		layered := func(pick func(l backend.Layered) int) func() float64 {
			return func() (v float64) {
				s.locked(func() { v = float64(pick(s.est.(backend.Layered))) })
				return v
			}
		}
		reg.GaugeFunc("gsumd_sketch_levels", "subsampling levels below level 0 in the recursive sketch (Options.Levels, resolved)",
			layered(func(l backend.Layered) int { levels, _, _ := l.Depth(); return levels }))
		reg.GaugeFunc("gsumd_sketch_deepest_tracked", "candidates the deepest level's tracker holds; below gsumd_sketch_deepest_capacity, that level sees its whole sub-universe",
			layered(func(l backend.Layered) int { _, tracked, _ := l.Depth(); return tracked }))
		reg.GaugeFunc("gsumd_sketch_deepest_capacity", "candidates one level's tracker can hold",
			layered(func(l backend.Layered) int { _, _, capacity := l.Depth(); return capacity }))
		reg.GaugeFunc("gsumd_sketch_rows", "CountSketch rows in every level (heavy.dims, from Options.Delta)",
			layered(func(l backend.Layered) int { rows, _ := l.Dims(); return rows }))
		reg.GaugeFunc("gsumd_sketch_buckets", "CountSketch buckets a row in every level (heavy.dims, from Lambda, Eps and the envelope)",
			layered(func(l backend.Layered) int { _, buckets := l.Dims(); return int(buckets) }))
	}
	if s.spec.Kind == backend.KindSharded {
		// The worker count is fixed by the Spec: no state lock needed, and
		// a restore or rebuild (same Spec) cannot make it stale.
		workers := float64(util.Workers(s.spec.Workers))
		reg.GaugeFunc("gsumd_hotpath_shards", "chunks the sharded kind's Process ingests in parallel (Spec.Workers, resolved); one sketch stays resident",
			func() float64 { return workers })
	}
	if _, ok := s.est.(backend.Windowed); ok {
		reg.GaugeFunc("gsumd_window_tick", "the window kind's tick clock",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(s.est.(backend.Windowed).Now())
			})
		reg.GaugeFunc("gsumd_window_stale_ticks", "ticks beyond the window the current estimate still includes",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(s.est.(backend.Windowed).Stale())
			})
	}
	return m
}

// ingested counts one applied batch on the hot path: two counter adds
// and one histogram observe, all atomic.
func (m *serverMetrics) ingested(transport string, updates int) {
	m.ingestUpdates[transport].Add(uint64(updates))
	m.ingestBatches[transport].Inc()
	m.batchSize.Observe(float64(updates))
}

// Metrics returns the Server's instrument registry, for embedders that
// want to mount it themselves or add their own instruments next to the
// daemon's.
func (s *Server) Metrics() *metrics.Registry { return s.obs.reg }

// SetReady flips the readiness bit served by GET /readyz and the
// gsumd_ready gauge. Serving frontends (cmd/gsumd, the soak harness)
// set it once the checkpoint is restored and the listener is up;
// DrainStreams clears it.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports readiness: SetReady(true) has been called and the
// daemon is not draining.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 only when the daemon should receive
// traffic — restored, listening, and not draining. Load balancers and
// the soak harness poll this instead of racing the boot sequence.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
