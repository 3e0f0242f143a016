package daemon

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
)

// flakyHandler wraps a daemon handler with a kill switch: while dead it
// answers 503 to everything, which the heartbeat loop must count as a
// miss.
type flakyHandler struct {
	h    http.Handler
	mu   sync.Mutex
	dead bool
}

func (f *flakyHandler) setDead(dead bool) {
	f.mu.Lock()
	f.dead = dead
	f.mu.Unlock()
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	dead := f.dead
	f.mu.Unlock()
	if dead {
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	f.h.ServeHTTP(w, r)
}

func findMember(t *testing.T, m []MemberInfo, addr string) MemberInfo {
	t.Helper()
	for _, mi := range m {
		if mi.Addr == addr {
			return mi
		}
	}
	t.Fatalf("member %s not in %v", addr, m)
	return MemberInfo{}
}

// TestRegisterEndpointAndMembers: workers announce themselves over
// POST /v1/register, the registry is served on GET /v1/members, and a
// relative or garbage address is refused.
func TestRegisterEndpointAndMembers(t *testing.T) {
	srv, err := NewServer(onePassSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cc := NewClient(ts.URL, nil)

	if err := cc.RegisterContext(context.Background(), "http://127.0.0.1:7601"); err != nil {
		t.Fatal(err)
	}
	if err := cc.RegisterContext(context.Background(), "http://127.0.0.1:7601"); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := cc.RegisterContext(context.Background(), "http://127.0.0.1:7602"); err != nil {
		t.Fatal(err)
	}
	if err := cc.RegisterContext(context.Background(), "not a url"); err == nil {
		t.Error("garbage register address accepted")
	}

	members := srv.Membership().Members()
	if len(members) != 2 {
		t.Fatalf("registry holds %d members, want 2: %v", len(members), members)
	}
	mi := findMember(t, members, "http://127.0.0.1:7601")
	if !mi.Alive || mi.HasSnapshot {
		t.Errorf("fresh member state %+v, want alive without snapshot", mi)
	}

	// The registry is also served over HTTP.
	resp, err := http.Get(ts.URL + "/v1/members")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/members: %s", resp.Status)
	}
}

// TestHeartbeatMarksDownAndRecovers: a worker that stops answering is
// demoted after MaxMisses consecutive probe failures and promoted again
// on the first success.
func TestHeartbeatMarksDownAndRecovers(t *testing.T) {
	spec := onePassSpec(5)
	worker, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	fh := &flakyHandler{h: worker.Handler()}
	wts := httptest.NewServer(fh)
	t.Cleanup(wts.Close)

	coord, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := coord.Membership()
	if err := m.Add(wts.URL); err != nil {
		t.Fatal(err)
	}
	// Long cadences: the test drives rounds by hand for determinism.
	m.Start(MembershipConfig{Heartbeat: time.Hour, PullEvery: time.Hour,
		MaxMisses: 2, Timeout: 2 * time.Second, Logf: t.Logf})
	t.Cleanup(m.Stop)

	m.ProbeAll()
	if mi := findMember(t, m.Members(), wts.URL); !mi.Alive || mi.LastSeen.IsZero() {
		t.Fatalf("live worker probed as %+v", mi)
	}

	fh.setDead(true)
	m.ProbeAll()
	if mi := findMember(t, m.Members(), wts.URL); !mi.Alive {
		t.Fatalf("worker down after 1 miss (MaxMisses=2): %+v", mi)
	}
	m.ProbeAll()
	if mi := findMember(t, m.Members(), wts.URL); mi.Alive || mi.Misses != 2 {
		t.Fatalf("worker still alive after %d misses: %+v", mi.Misses, mi)
	}

	fh.setDead(false)
	m.ProbeAll()
	if mi := findMember(t, m.Members(), wts.URL); !mi.Alive || mi.Misses != 0 {
		t.Fatalf("recovered worker not promoted: %+v", mi)
	}
}

// TestHeartbeatCountsDriftAsMiss: a worker built from a different Spec
// answers the handshake with a 409; the heartbeat must treat it like a
// dead worker (its snapshots would be refused anyway).
func TestHeartbeatCountsDriftAsMiss(t *testing.T) {
	coord, err := NewServer(onePassSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := NewServer(onePassSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	dts := httptest.NewServer(drifted.Handler())
	t.Cleanup(dts.Close)

	m := coord.Membership()
	if err := m.Add(dts.URL); err != nil {
		t.Fatal(err)
	}
	m.Start(MembershipConfig{Heartbeat: time.Hour, PullEvery: time.Hour,
		MaxMisses: 1, Timeout: 2 * time.Second, Logf: t.Logf})
	t.Cleanup(m.Stop)
	m.ProbeAll()
	if mi := findMember(t, m.Members(), dts.URL); mi.Alive {
		t.Fatalf("drifted worker kept alive: %+v", mi)
	}
}

// TestAutoPullRebuildsWithoutDoubleCounting: repeated pull rounds over
// a growing fleet state always equal the serial run — the rebuild
// replaces the aggregate instead of re-merging, so pulling twice does
// not double-count anything.
func TestAutoPullRebuildsWithoutDoubleCounting(t *testing.T) {
	spec := onePassSpec(42)
	s := testStream(13)
	updates := s.Updates()
	half := len(updates) / 2

	mk := func() (*Server, *httptest.Server) {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}
	w1srv, w1 := mk()
	w2srv, w2 := mk()
	coord, cts := mk()

	m := coord.Membership()
	for _, w := range []string{w1.URL, w2.URL} {
		if err := m.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	m.Start(MembershipConfig{Heartbeat: time.Hour, PullEvery: time.Hour,
		Timeout: 2 * time.Second, Logf: t.Logf})
	t.Cleanup(m.Stop)

	// Round 1: half the stream on w1.
	if err := w1srv.IngestBatch(updates[:half]); err != nil {
		t.Fatal(err)
	}
	m.ProbeAll()
	if err := m.PullAll(); err != nil {
		t.Fatal(err)
	}
	halfSerial, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	halfSerial.UpdateBatch(updates[:half])
	est := func() float64 {
		got, err := NewClient(cts.URL, nil).Estimate(nil)
		if err != nil {
			t.Fatal(err)
		}
		return *got.Estimate
	}
	if got := est(); got != halfSerial.Estimate() {
		t.Fatalf("after round 1: estimate %.17g != serial(half) %.17g", got, halfSerial.Estimate())
	}

	// Pull again with nothing new: the estimate must not move.
	if err := m.PullAll(); err != nil {
		t.Fatal(err)
	}
	if got := est(); got != halfSerial.Estimate() {
		t.Fatalf("idempotent re-pull moved the estimate to %.17g", got)
	}

	// Round 2: the other half lands on w2; the next pull sees the whole
	// stream, bit-identical to serial.
	if err := w2srv.IngestBatch(updates[half:]); err != nil {
		t.Fatal(err)
	}
	if err := m.PullAll(); err != nil {
		t.Fatal(err)
	}
	serial := serialEstimator(t, spec, s)
	if got := est(); got != serial.Estimate() {
		t.Fatalf("after round 2: estimate %.17g != serial %.17g", got, serial.Estimate())
	}
}

// TestAdvanceDuringRebuildIsNotLost: a rebuild decodes its snapshots
// outside the state lock, so a /v1/advance can be acknowledged while it
// runs; the swap must carry that clock over instead of installing an
// estimator still at the tick the rebuild started from. The test sweeps
// one advance across in-flight rebuilds until one lands mid-decode (the
// rebuild was still running when the advance was acked, and succeeded —
// an advance BEFORE the decode makes the snapshots' tick check fail).
func TestAdvanceDuringRebuildIsNotLost(t *testing.T) {
	spec := windowSpec(31, 64, 2)
	srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)

	worker, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	worker.UpdateBatch(testStream(7).Updates())
	// snapsAt is a pull's worth of worker snapshots taken at the given
	// tick; 16 copies stretch the decode to most of the rebuild.
	snapsAt := func(tick uint64) [][]byte {
		worker.(backend.Windowed).Advance(tick)
		snap, err := worker.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		snaps := make([][]byte, 16)
		for i := range snaps {
			snaps[i] = snap
		}
		return snaps
	}

	start := time.Now()
	if err := srv.rebuildFrom(snapsAt(0)); err != nil {
		t.Fatal(err)
	}
	undisturbed := time.Since(start)

	var acked uint64
	for round := 1; round <= 12; round++ {
		snaps := snapsAt(acked)
		done := make(chan error, 1)
		go func() { done <- srv.rebuildFrom(snaps) }()
		time.Sleep(undisturbed * time.Duration(round%4) / 4)
		if acked, err = c.AdvanceContext(context.Background(), acked+1); err != nil {
			t.Fatal(err)
		}
		midRebuild := len(done) == 0
		rebuildErr := <-done

		res, err := c.Estimate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if *res.Tick < acked {
			t.Fatalf("round %d: /v1/advance acknowledged tick %d, then /v1/estimate reports tick %d (rebuild error: %v)",
				round, acked, *res.Tick, rebuildErr)
		}
		if midRebuild && rebuildErr == nil {
			return
		}
	}
	t.Fatal("no advance landed while a rebuild was decoding; the sweep proved nothing")
}

// TestPullKeepsDeadWorkersLastSnapshot: when a worker dies, its last
// pulled snapshot keeps contributing to the aggregate until it returns,
// so a crash does not silently subtract a shard from the estimate.
func TestPullKeepsDeadWorkersLastSnapshot(t *testing.T) {
	spec := onePassSpec(7)
	s := testStream(17)
	updates := s.Updates()
	half := len(updates) / 2

	worker, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(worker.Handler())
	w2, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	w2ts := httptest.NewServer(w2.Handler())
	t.Cleanup(w2ts.Close)

	coord, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	if err := worker.IngestBatch(updates[:half]); err != nil {
		t.Fatal(err)
	}
	if err := w2.IngestBatch(updates[half:]); err != nil {
		t.Fatal(err)
	}

	m := coord.Membership()
	for _, w := range []string{wts.URL, w2ts.URL} {
		if err := m.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	m.Start(MembershipConfig{Heartbeat: time.Hour, PullEvery: time.Hour,
		MaxMisses: 1, Retries: 1, Backoff: time.Millisecond,
		Timeout: time.Second, Logf: t.Logf})
	t.Cleanup(m.Stop)
	m.ProbeAll()
	if err := m.PullAll(); err != nil {
		t.Fatal(err)
	}

	serial := serialEstimator(t, spec, s)
	est := func() float64 {
		got, err := NewClient(cts.URL, nil).Estimate(nil)
		if err != nil {
			t.Fatal(err)
		}
		return *got.Estimate
	}
	if got := est(); got != serial.Estimate() {
		t.Fatalf("pre-crash estimate %.17g != serial %.17g", got, serial.Estimate())
	}

	// Kill worker 1 for good. Probe marks it down; the next pull must
	// keep its last snapshot in the aggregate.
	wts.CloseClientConnections()
	wts.Close()
	m.ProbeAll()
	if mi := findMember(t, m.Members(), wts.URL); mi.Alive {
		t.Fatalf("dead worker still alive: %+v", mi)
	}
	if err := m.PullAll(); err != nil {
		t.Fatal(err)
	}
	if got := est(); got != serial.Estimate() {
		t.Errorf("estimate after losing a worker %.17g != serial %.17g (last snapshot dropped?)",
			got, serial.Estimate())
	}
}

// TestMembershipLoopsEndToEnd drives the real tickers: a coordinator
// with fast cadences converges to the serial estimate on its own, and
// keeps converging as more traffic lands — no manual PullFrom anywhere.
func TestMembershipLoopsEndToEnd(t *testing.T) {
	spec := onePassSpec(42)
	s := testStream(19)
	updates := s.Updates()
	half := len(updates) / 2

	mk := func() (*Server, *httptest.Server) {
		srv, err := NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}
	w1srv, w1 := mk()
	w2srv, w2 := mk()
	coord, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	// Workers join through the HTTP registration path.
	cc := NewClient(cts.URL, nil)
	for _, w := range []string{w1.URL, w2.URL} {
		if err := cc.RegisterContext(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	m := coord.Membership()
	m.Start(MembershipConfig{Heartbeat: 10 * time.Millisecond, PullEvery: 15 * time.Millisecond,
		Timeout: 2 * time.Second, Logf: t.Logf})
	t.Cleanup(m.Stop)

	if err := w1srv.IngestBatch(updates[:half]); err != nil {
		t.Fatal(err)
	}
	if err := w2srv.IngestBatch(updates[half:]); err != nil {
		t.Fatal(err)
	}

	serial := serialEstimator(t, spec, s)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := cc.Estimate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if *got.Estimate == serial.Estimate() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-pull never converged: estimate %v, want %.17g",
				*got.Estimate, serial.Estimate())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSelfHealingClusterE2E is the full story: workers register, the
// coordinator aggregates them, one worker is killed mid-run, restarts
// from its checkpoint ON THE SAME ADDRESS, is re-fed the lost tail, and
// the coordinator heals back to the exact serial estimate — no manual
// intervention beyond the restart itself.
func TestSelfHealingClusterE2E(t *testing.T) {
	spec := onePassSpec(42)
	s := testStream(23)
	updates := s.Updates()
	half := len(updates) / 2
	w2Updates := updates[half:]
	ckptAt := len(w2Updates) / 2
	serial := serialEstimator(t, spec, s)

	// Worker 1: plain.
	w1srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	w1 := httptest.NewServer(w1srv.Handler())
	t.Cleanup(w1.Close)

	// Worker 2 listens on an explicit port so its restart can reuse the
	// address, exactly as a supervised daemon would.
	stateDir := t.TempDir()
	ckptPath := CheckpointPath(stateDir)
	w2srv, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w2addr := l.Addr().String()
	w2 := httptest.NewUnstartedServer(w2srv.Handler())
	w2.Listener.Close()
	w2.Listener = l
	w2.Start()

	coord, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)
	cc := NewClient(cts.URL, nil)
	for _, w := range []string{w1.URL, "http://" + w2addr} {
		if err := cc.RegisterContext(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	m := coord.Membership()
	m.Start(MembershipConfig{Heartbeat: time.Hour, PullEvery: time.Hour,
		MaxMisses: 1, Retries: 1, Backoff: time.Millisecond,
		Timeout: time.Second, Logf: t.Logf})
	t.Cleanup(m.Stop)

	// Normal operation: both workers ingest, w2 checkpoints, the
	// coordinator aggregates.
	if err := w1srv.IngestBatch(updates[:half]); err != nil {
		t.Fatal(err)
	}
	if err := w2srv.IngestBatch(w2Updates[:ckptAt]); err != nil {
		t.Fatal(err)
	}
	if err := w2srv.WriteCheckpoint(ckptPath); err != nil {
		t.Fatal(err)
	}
	m.ProbeAll()
	if err := m.PullAll(); err != nil {
		t.Fatal(err)
	}

	// Crash: post-checkpoint updates die with the process.
	if err := w2srv.IngestBatch(w2Updates[ckptAt : ckptAt+ckptAt/2]); err != nil {
		t.Fatal(err)
	}
	w2.CloseClientConnections()
	w2.Close()
	m.ProbeAll()
	if mi := findMember(t, m.Members(), "http://"+w2addr); mi.Alive {
		t.Fatalf("crashed worker still alive: %+v", mi)
	}

	// Restart on the same address from the checkpoint; everything after
	// the checkpoint is re-delivered.
	w2srvB, err := NewServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2srvB.RestoreCheckpoint(ckptPath); err != nil {
		t.Fatalf("restart from checkpoint: %v", err)
	}
	l2, err := net.Listen("tcp", w2addr)
	if err != nil {
		t.Fatal(err)
	}
	w2b := httptest.NewUnstartedServer(w2srvB.Handler())
	w2b.Listener.Close()
	w2b.Listener = l2
	w2b.Start()
	t.Cleanup(w2b.Close)
	if err := w2srvB.IngestBatch(w2Updates[ckptAt:]); err != nil {
		t.Fatal(err)
	}

	// The next heartbeat heals the membership; the next pull heals the
	// estimate — bit-identical to the serial run over the whole stream.
	m.ProbeAll()
	if mi := findMember(t, m.Members(), "http://"+w2addr); !mi.Alive {
		t.Fatalf("restarted worker not re-promoted: %+v", mi)
	}
	if err := m.PullAll(); err != nil {
		t.Fatal(err)
	}
	got, err := cc.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if est := *got.Estimate; est != serial.Estimate() {
		t.Errorf("healed estimate %.17g != serial %.17g", est, serial.Estimate())
	}
}
