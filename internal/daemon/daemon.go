package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/wire"
)

// maxBodyBytes caps request bodies (ingest batches and shard snapshots).
const maxBodyBytes = 64 << 20

// Server is one backend.Estimator behind the gsumd HTTP surface. The
// backend is resolved once through the registry (backend.Open); every
// endpoint then works against the unified Estimator contract plus its
// optional capabilities, so adding a sketch kind to the registry adds
// it to the daemon with no code here. Sketches are not goroutine-safe,
// so a mutex serializes state access; HTTP handlers are otherwise
// stateless.
type Server struct {
	mu      sync.Mutex
	spec    backend.Spec // normalized
	fp      uint64       // spec.Fingerprint(), served and checked by /v1/config
	est     backend.Estimator
	ingests uint64 // total updates absorbed, for /v1/config introspection

	// members is the coordinator-side worker registry (membership.go).
	// It has its own locking; the loops run only after Membership().Start.
	members *Membership

	// streams tracks live /v1/stream connections (stream.go). It has its
	// own locking; DrainStreams winds them down at shutdown.
	streams streamState

	// obs is the observability surface (observe.go): the /metrics
	// registry plus the readiness bits behind /readyz.
	obs      *serverMetrics
	ready    atomic.Bool
	draining atomic.Bool
}

// NewServer validates the spec through the registry and builds the
// estimator. The same Spec (seed included) must be given to every
// daemon that participates in one aggregation; /v1/config enforces it.
func NewServer(spec backend.Spec) (*Server, error) {
	n, err := spec.Normalize()
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	est, err := backend.Open(n)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	if _, ok := est.(backend.TwoPass); ok {
		// The HTTP surface has no finish-pass verb: ingest would only
		// ever feed pass 1 and /v1/estimate would serve an untabulated
		// value. Refuse at construction instead of answering garbage.
		return nil, fmt.Errorf("daemon: kind %q needs a stream replay between passes, which the HTTP surface cannot drive; use a single-pass kind", n.Kind)
	}
	s := &Server{spec: n, fp: n.Fingerprint(), est: est}
	s.members = newMembership(s)
	s.obs = newServerMetrics(s)
	return s, nil
}

// Spec returns the daemon's normalized Spec.
func (s *Server) Spec() backend.Spec { return s.spec }

// IngestBatch absorbs a batch in-process, with the same domain
// validation and counter bookkeeping as /v1/ingest — the loading path
// for embedders and benchmarks that do not need the HTTP round trip.
func (s *Server) IngestBatch(batch []stream.Update) error {
	if _, err := s.apply(transportInProcess, batch); err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	return nil
}

// apply is the one way a batch reaches the estimator, whatever
// transport carried it: check every item against the domain, absorb the
// batch under the state lock, count it. It returns the daemon's running
// ingest total; a rejected batch changes nothing.
func (s *Server) apply(transport string, batch []stream.Update) (total uint64, err error) {
	n := s.spec.Options.N
	for i, u := range batch {
		if u.Item >= n {
			return 0, fmt.Errorf("update %d: item %d outside domain [0,%d)", i, u.Item, n)
		}
	}
	s.locked(func() {
		s.est.UpdateBatch(batch)
		s.ingests += uint64(len(batch))
		total = s.ingests
	})
	s.obs.ingested(transport, len(batch))
	return total, nil
}

// locked runs fn under the state lock and releases it however fn ends.
// Every section that calls into the estimator goes through it: net/http
// recovers a panicking handler and keeps serving, so a lock that a panic
// left held would block every later ingest, estimate, scrape, checkpoint
// and drain behind one bad request.
func (s *Server) locked(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// IngestRequest is the /v1/ingest body: updates as [item, delta] pairs.
type IngestRequest struct {
	Updates [][2]int64 `json:"updates"`
}

// ConfigInfo is the /v1/config response: the full normalized Spec, its
// fingerprint, ingestion/space counters, and — for the kinds that are one
// recursive stack — the sizing it resolved to: subsampling levels (0 in the
// Spec means depth from capacity) and each level's rows, buckets, tracker.
type ConfigInfo struct {
	Spec        backend.Spec `json:"spec"`
	Fingerprint uint64       `json:"fingerprint"`
	Ingested    uint64       `json:"ingested"`
	SpaceBytes  int          `json:"space_bytes"`
	Levels      int          `json:"levels,omitempty"`
	Rows        int          `json:"rows,omitempty"`
	Buckets     uint64       `json:"buckets,omitempty"`
	Tracker     int          `json:"tracker,omitempty"`
}

// CheckRequest is the POST /v1/config body: the sender's Spec
// fingerprint. The daemon answers 200 on a match and 409 Conflict
// otherwise — the pre-merge handshake that catches configuration drift
// before any snapshot ships.
type CheckRequest struct {
	Fingerprint uint64 `json:"fingerprint"`
}

// AdvanceRequest is the /v1/advance body: the tick to move the window
// clock to. Past ticks are a no-op (the clock never moves backward), so
// several pushers may synchronize by all posting the same tick.
type AdvanceRequest struct {
	Tick uint64 `json:"tick"`
}

// CoverEntry is one (item, frequency, weight) triple of a heavy-hitter
// cover, as served by /v1/estimate for CoverReporter kinds.
type CoverEntry struct {
	Item   uint64  `json:"item"`
	Freq   int64   `json:"freq"`
	Weight float64 `json:"weight"`
}

// EstimateResult is the typed /v1/estimate payload, shared by the
// server's encoder and Client.Estimate's decoder so neither side pokes
// at untyped JSON. Which fields are non-nil depends on the daemon
// kind's capabilities and the query:
//
//   - Estimate: the g-SUM (or windowed) estimate; nil only for cover
//     and bare-f2 responses.
//   - G: the catalog function a ?g= post-hoc query asked for.
//   - Item: echoed back for ?item= point queries, with the per-item
//     frequency estimate in Estimate.
//   - F2: a countsketch daemon's second-moment estimate when no ?item=
//     was given.
//   - Tick / Window / StaleTicks: the window kind's clock, window
//     length, and realized staleness.
//   - Cover / WeightSum: a heavy kind's cover entries and their total
//     weight.
type EstimateResult struct {
	Estimate   *float64     `json:"estimate,omitempty"`
	G          string       `json:"g,omitempty"`
	Item       *uint64      `json:"item,omitempty"`
	F2         *float64     `json:"f2,omitempty"`
	Tick       *uint64      `json:"tick,omitempty"`
	Window     *uint64      `json:"window,omitempty"`
	StaleTicks *uint64      `json:"stale_ticks,omitempty"`
	Cover      []CoverEntry `json:"cover,omitempty"`
	WeightSum  *float64     `json:"weight_sum,omitempty"`
}

// Value returns the scalar estimate and whether one is present (false
// for cover responses and bare-f2 countsketch responses).
func (r EstimateResult) Value() (float64, bool) {
	if r.Estimate == nil {
		return 0, false
	}
	return *r.Estimate, true
}

func f64p(v float64) *float64 { return &v }
func u64p(v uint64) *uint64   { return &v }

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", s.obs.reg)
	mux.HandleFunc("/v1/config", s.handleConfig)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/stream", s.handleStream)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/merge", s.handleMerge)
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	mux.HandleFunc("/v1/advance", s.handleAdvance)
	mux.HandleFunc("/v1/register", s.handleRegister)
	mux.HandleFunc("/v1/members", s.handleMembers)
	return mux
}

// handleRegister adds a worker to the membership registry. Registration
// always succeeds on a well-formed base URL; whether the worker is
// actually reachable (and Spec-compatible) is the heartbeat loop's job.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad register body: %w", err))
		return
	}
	if err := s.members.Add(req.Addr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "registered", "members": len(s.members.Members())})
}

// handleMembers serves the membership registry.
func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"members": s.members.Members()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleConfig serves the Spec (GET) and verifies a peer's Spec
// fingerprint (POST): 200 on match, 409 Conflict on drift. Clients call
// the POST on every worker before pulling snapshots, so a mismatched
// deployment fails at handshake time with the two fingerprints in the
// error, not at merge time with a cryptic wire error.
func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		var resp ConfigInfo
		s.locked(func() {
			resp = ConfigInfo{Spec: s.spec, Fingerprint: s.fp,
				Ingested: s.ingests, SpaceBytes: s.est.SpaceBytes()}
			if l, ok := s.est.(backend.Layered); ok {
				resp.Levels, _, resp.Tracker = l.Depth()
				resp.Rows, resp.Buckets = l.Dims()
			}
		})
		writeJSON(w, http.StatusOK, resp)
	case http.MethodPost:
		var req CheckRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad config check body: %w", err))
			return
		}
		if req.Fingerprint != s.fp {
			writeError(w, http.StatusConflict, fmt.Errorf(
				"spec fingerprint mismatch: peer %#x vs local %#x (different Spec, or a build with another sketch layout than this one's version %d; refusing before any snapshot is merged)",
				req.Fingerprint, s.fp, wire.Version))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "match"})
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST only"))
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req IngestRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad ingest body: %w", err))
		return
	}
	batch := make([]stream.Update, len(req.Updates))
	for i, p := range req.Updates {
		if p[0] < 0 {
			// A negative item is most likely a uint64 ID >= 2^63 that
			// wrapped the transport's int64; say so instead of reporting a
			// confusing domain failure (or, for huge domains, silently
			// misattributing the update to the wrong item).
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("update %d: item %d is negative (item IDs >= 2^63 exceed the JSON transport's int64 range and are rejected, not wrapped)", i, p[0]))
			return
		}
		batch[i] = stream.Update{Item: uint64(p[0]), Delta: p[1]}
	}
	total, err := s.apply(transportJSON, batch)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"ingested": uint64(len(batch)), "total": total})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	var data []byte
	var err error
	s.locked(func() { data, err = s.est.MarshalBinary() })
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	// Read one byte past the cap so an oversize body is rejected whole
	// rather than truncated into a corrupt partial payload.
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(data) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("snapshot exceeds %d bytes", maxBodyBytes))
		return
	}
	start := time.Now()
	s.locked(func() { err = s.est.UnmarshalBinary(data) })
	s.obs.mergeSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		// A fingerprint/dimension mismatch is the client's fault: it shipped
		// a snapshot from a differently-configured daemon.
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "merged"})
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req AdvanceRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad advance body: %w", err))
		return
	}
	start := time.Now()
	var now uint64
	var ok bool
	s.locked(func() {
		// s.est is read under the lock: a membership rebuild swaps it, and
		// an advance applied to the estimator being replaced would be lost.
		var win backend.Windowed
		if win, ok = s.est.(backend.Windowed); ok {
			// Arbitrarily large jumps are safe: window.Advance fast-forwards
			// across spans that expire everything instead of replaying each
			// elapsed tick, so a client posting wall-clock epoch ticks cannot
			// stall the daemon under its state lock.
			now = win.Advance(req.Tick)
		}
	})
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"daemon: kind %q summarizes the whole stream and has no tick clock; use the window kind", s.spec.Kind))
		return
	}
	s.obs.advanceSeconds.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, map[string]uint64{"tick": now})
}

// handleEstimate answers /v1/estimate by capability, not by kind:
// ?item= point-queries a PointQuerier, ?g= post-hoc-queries a
// FuncQuerier, a CoverReporter returns its cover, a Windowed estimator
// reports its clock alongside the estimate, and everything else answers
// {"estimate": ...}.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	q := r.URL.Query()
	if err := s.sizedFor(q.Get("g")); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	var resp EstimateResult
	var err error
	s.locked(func() { resp, err = s.estimate(q) })
	s.obs.estimateSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// sizedFor refuses a ?g= function the sketch was not sized for: one other
// than Spec.G whose own envelope H(M) exceeds the Options.Envelope the
// Spec sized the sketch for, where EstimateFor would answer outside its
// guarantee. Measuring an envelope takes milliseconds, so it runs before
// the state lock; an unknown name, or a kind without post-hoc queries, is
// left for estimate to refuse.
func (s *Server) sizedFor(name string) error {
	if name == "" || name == s.spec.G {
		return nil
	}
	g, err := backend.CatalogFunc(name)
	var post bool
	s.locked(func() { _, post = s.est.(backend.FuncQuerier) })
	if err != nil || !post {
		return nil
	}
	own := s.spec.Options
	own.Envelope = 0
	if h := core.EnvelopeFor(g, own); h > s.spec.Options.Envelope {
		return fmt.Errorf("%s has envelope H(M) = %g, above the %g this sketch was sized for (Options.Envelope); open it with an envelope that covers every function it will be asked for",
			name, h, s.spec.Options.Envelope)
	}
	return nil
}

func (s *Server) estimate(q url.Values) (EstimateResult, error) {
	if it := q.Get("item"); it != "" {
		pq, ok := s.est.(backend.PointQuerier)
		if !ok {
			return EstimateResult{}, fmt.Errorf("kind %q does not answer per-item point queries", s.spec.Kind)
		}
		item, err := strconv.ParseUint(it, 10, 64)
		if err != nil {
			return EstimateResult{}, fmt.Errorf("bad item %q: %w", it, err)
		}
		return EstimateResult{Item: u64p(item), Estimate: f64p(float64(pq.EstimateItem(item)))}, nil
	}
	if name := q.Get("g"); name != "" {
		fq, ok := s.est.(backend.FuncQuerier)
		if !ok {
			return EstimateResult{}, fmt.Errorf("kind %q was built for a fixed function and does not answer post-hoc ?g= queries", s.spec.Kind)
		}
		g, err := backend.CatalogFunc(name)
		if err != nil {
			return EstimateResult{}, err
		}
		return EstimateResult{G: name, Estimate: f64p(fq.EstimateFor(g))}, nil
	}
	switch e := s.est.(type) {
	case backend.CoverReporter:
		cover := e.Cover()
		entries := make([]CoverEntry, len(cover))
		for i, c := range cover {
			entries[i] = CoverEntry{Item: c.Item, Freq: c.Freq, Weight: c.Weight}
		}
		return EstimateResult{Cover: entries, WeightSum: f64p(cover.WeightSum())}, nil
	case backend.PointQuerier:
		return EstimateResult{F2: f64p(e.EstimateF2())}, nil
	case backend.Windowed:
		return EstimateResult{
			Estimate:   f64p(s.est.Estimate()),
			Tick:       u64p(e.Now()),
			Window:     u64p(e.Config().W),
			StaleTicks: u64p(e.Stale()),
		}, nil
	default:
		return EstimateResult{Estimate: f64p(s.est.Estimate())}, nil
	}
}
