package window

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

// smallOpts size the panes of the structural tests: two levels whose
// trackers (383 candidates) hold every item randomDrive draws, so merged
// and serial panes agree byte for byte, trackers included.
// The envelope is measured once here rather than by every New.
var smallOpts = func() core.Options {
	o := core.Options{N: 1 << 9, M: 1 << 8, Eps: 0.25, Lambda: 1.0 / 16, Seed: 42}
	o.Envelope = core.EnvelopeFor(gfunc.F2Func(), o)
	return o
}()

func mustWindow(t testing.TB, cfg Config) *Window {
	t.Helper()
	w, err := New(gfunc.F2Func(), smallOpts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// checkInvariants validates the pane layout; tests call it after every
// mutation. It returns an error naming the first violation.
func (w *Window) checkInvariants() error {
	built := 0
	for _, p := range w.panes {
		if p != nil {
			built++
		}
	}
	if len(w.panes) > w.cfg.K+1 || built > w.cfg.K+1 {
		return fmt.Errorf("window: %d panes, %d of them built, exceed K+1 = %d", len(w.panes), built, w.cfg.K+1)
	}
	oldest := w.oldest()
	if uint64(len(w.panes)) != (w.now-oldest)/w.span+1 {
		return fmt.Errorf("window: %d panes from tick %d do not end at the pane holding the clock %d (width %d)", len(w.panes), oldest, w.now, w.span)
	}
	if w.now >= w.cfg.W && (oldest > w.now-w.cfg.W+1 || oldest+w.span <= w.now-w.cfg.W+1) {
		return fmt.Errorf("window: oldest pane [%d,+%d) does not hold tick %d, the window's first", oldest, w.span, w.now-w.cfg.W+1)
	}
	if w.Stale() > w.StaleBound() {
		return fmt.Errorf("window: stale ticks %d exceed bound %d", w.Stale(), w.StaleBound())
	}
	return nil
}

// updateAt advances w to tick and feeds one update there.
func (w *Window) updateAt(item uint64, delta int64, tick uint64) {
	w.Advance(tick)
	w.Update(item, delta)
}

// tickedUpdate is one (item, delta, tick) triple for driving windows.
type tickedUpdate struct {
	item uint64
	tick uint64
}

// randomDrive builds a deterministic random ticked workload: items over
// a small domain, ticks advancing by random small strides.
func randomDrive(seed uint64, n int) []tickedUpdate {
	rng := util.NewSplitMix64(seed)
	out := make([]tickedUpdate, n)
	tick := uint64(0)
	for i := range out {
		if rng.Float64() < 0.3 {
			tick += rng.Uint64n(4) // including occasional same-tick stays
		}
		out[i] = tickedUpdate{item: rng.Uint64n(256), tick: tick}
	}
	return out
}

// TestWindowInvariants drives random ticked workloads and validates the
// pane layout (at most K+1 panes and built stacks, aligned panes ending
// at the clock, the oldest holding the window's first tick, stale bound)
// after every single update.
func TestWindowInvariants(t *testing.T) {
	for _, cfg := range []Config{{W: 1}, {W: 4}, {W: 16}, {W: 16, K: 4}, {W: 100, K: 3}, {W: 7, K: 8}} {
		w := mustWindow(t, cfg)
		for i, u := range randomDrive(7, 2000) {
			w.updateAt(u.item, 1, u.tick)
			if err := w.checkInvariants(); err != nil {
				t.Fatalf("cfg %+v after update %d (tick %d): %v", cfg, i, u.tick, err)
			}
		}
	}
}

// TestAdvancePathIndependent: the live panes are a function of the clock
// alone, so Advance(a) then Advance(b) leaves a window byte for byte as
// Advance(b) alone does — across configurations, starting states with
// live data, and jumps inside a pane, across panes, and past the window.
func TestAdvancePathIndependent(t *testing.T) {
	for _, cfg := range []Config{{W: 1}, {W: 4}, {W: 7}, {W: 16, K: 2}, {W: 16, K: 4}, {W: 33, K: 6}, {W: 100, K: 3}, {W: 60, K: 5}} {
		cfg, _ := cfg.Normalize()
		ms := MaxSpan(cfg)
		for _, start := range []uint64{0, 3, cfg.W + 1, 5*ms + 2} {
			for _, jump := range []uint64{1, ms, cfg.W, cfg.W + ms + 1, cfg.W + 9*ms + 3, 12345} {
				for _, via := range []uint64{1, jump / 2, jump - 1} {
					direct, stepped := mustWindow(t, cfg), mustWindow(t, cfg)
					for _, w := range []*Window{direct, stepped} {
						w.updateAt(5, 100, start) // live data the jump may expire
					}
					stepped.Advance(start + via)
					direct.Advance(start + jump)
					stepped.Advance(start + jump)
					if err := direct.checkInvariants(); err != nil {
						t.Fatalf("cfg %+v start %d jump %d: %v", cfg, start, jump, err)
					}
					db, _ := direct.MarshalBinary()
					sb, _ := stepped.MarshalBinary()
					if !bytes.Equal(db, sb) {
						t.Fatalf("cfg %+v start %d: Advance(+%d) then (+%d) differs from Advance(+%d) alone", cfg, start, via, jump, jump)
					}
				}
			}
		}
	}
}

// TestAdvanceCostIndependentOfW: Advance touches the panes it drops, not
// the ticks it crosses, so a MaxW window driven through random jumps of
// up to 2^53 ticks, with data in its panes, finishes at once.
func TestAdvanceCostIndependentOfW(t *testing.T) {
	start := time.Now()
	for _, k := range []int{2, MaxK} {
		w := mustWindow(t, Config{W: MaxW, K: k})
		rng := util.NewSplitMix64(uint64(k))
		for i := 0; i < 1000; i++ {
			w.Advance(w.Now() + 1 + rng.Uint64n(1<<rng.Uint64n(54)))
			if i%8 == 0 {
				w.Update(rng.Uint64n(256), 1)
			}
			if err := w.checkInvariants(); err != nil {
				t.Fatalf("K=%d after jump %d to %d: %v", k, i, w.Now(), err)
			}
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("2,000 jumps at W = MaxW took %v", took)
	}
}

// TestAdvanceHugeJumpIsCheap: advancing across an absurd number of
// ticks (e.g. a client posting wall-clock epoch seconds) completes
// immediately instead of replaying each tick.
func TestAdvanceHugeJumpIsCheap(t *testing.T) {
	w := mustWindow(t, Config{W: 3600, K: 4})
	w.updateAt(1, 1, 0)
	w.Advance(1753680000) // epoch seconds scale
	if w.Now() != 1753680000 {
		t.Fatalf("clock at %d", w.Now())
	}
	if err := w.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	w.Advance(1<<62 + 12345)
	if err := w.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	got, _ := w.Merged().MarshalBinary()
	if !bytes.Equal(got, w.emptyBlob) {
		t.Fatal("data survived a jump past the window")
	}
}

// TestWindowSnapshotDeterminism: same seed + same tick stream ⇒
// byte-identical snapshots, independently of how updates were batched.
func TestWindowSnapshotDeterminism(t *testing.T) {
	drive := randomDrive(3, 2500)
	run := func(batched bool) []byte {
		w := mustWindow(t, Config{W: 24, K: 3})
		if batched {
			lo := 0
			for lo < len(drive) {
				hi := lo
				for hi < len(drive) && drive[hi].tick == drive[lo].tick {
					hi++
				}
				batch := make([]stream.Update, 0, hi-lo)
				for _, u := range drive[lo:hi] {
					batch = append(batch, stream.Update{Item: u.item, Delta: 1})
				}
				w.Advance(drive[lo].tick)
				w.UpdateBatch(batch)
				lo = hi
			}
		} else {
			for _, u := range drive {
				w.updateAt(u.item, 1, u.tick)
			}
		}
		data, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := run(false), run(false), run(true)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different snapshots")
	}
	if !bytes.Equal(a, c) {
		t.Fatal("batched run produced a different snapshot than per-update run")
	}
}

// TestWindowMergeErrors: another configuration, seed or clock must fail
// without touching the receiver.
func TestWindowMergeErrors(t *testing.T) {
	a := mustWindow(t, Config{W: 8})
	a.updateAt(1, 1, 0)
	before, _ := a.MarshalBinary()
	reseeded := smallOpts
	reseeded.Seed++
	other, err := New(gfunc.F2Func(), reseeded, Config{W: 8})
	if err != nil {
		t.Fatal(err)
	}
	other.Update(1, 1)
	late := mustWindow(t, Config{W: 8})
	late.Advance(5)
	for name, src := range map[string]*Window{"config": mustWindow(t, Config{W: 16}), "seed": other, "clock": late} {
		if err := a.Merge(src); err == nil {
			t.Errorf("%s mismatch not detected", name)
		}
	}
	if after, _ := a.MarshalBinary(); !bytes.Equal(before, after) {
		t.Fatal("failed merge mutated the receiver")
	}
}

// estDrive builds a ticked insertion stream for estimator tests: a
// skewed working set over T ticks.
func estDrive(seed uint64, n int, ticks uint64) []tickedUpdate {
	rng := util.NewSplitMix64(seed)
	out := make([]tickedUpdate, n)
	for i := range out {
		r := rng.Float64()
		out[i] = tickedUpdate{
			item: uint64(r * r * 300),
			tick: uint64(i) * ticks / uint64(n),
		}
	}
	return out
}

func newWindowEstimator(t *testing.T, cfg Config) *Window {
	t.Helper()
	e, err := New(gfunc.F2Func(),
		core.Options{N: 1 << 10, M: 1 << 10, Eps: 0.25, Seed: 9, Lambda: 1.0 / 16}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWindowSerialVsParallelSnapshots is the sharding contract: the
// merged shard windows reproduce the serial window snapshot BYTE for
// byte, at every worker count (so its estimate too). The drive's items stay
// inside the panes' trackers, the regime where the merge contract pins
// tracked ids as well as counters (see internal/core/merge.go).
func TestWindowSerialVsParallelSnapshots(t *testing.T) {
	drive := randomDrive(17, 3000)
	last := drive[len(drive)-1].tick
	cfg := Config{W: 12, K: 3}
	serial := mustWindow(t, cfg)
	for _, u := range drive {
		serial.updateAt(u.item, 1, u.tick)
	}
	serial.Advance(last)
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5} {
		shards := make([]*Window, workers)
		for i := range shards {
			shards[i] = mustWindow(t, cfg)
			lo, hi := util.Cut(len(drive), workers, i)
			for _, u := range drive[lo:hi] {
				shards[i].updateAt(u.item, 1, u.tick)
			}
			shards[i].Advance(last)
		}
		for i := 1; i < workers; i++ {
			if err := shards[0].Merge(shards[i]); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
		got, err := shards[0].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: merged snapshot differs from serial snapshot", workers)
		}
	}
}

// TestEstimatorTracksWindowedExact: the windowed estimate approximates
// the exact g-SUM over the ticks the window covers (window plus
// documented stale margin), and is far from the whole-stream answer
// when most of the stream has expired.
func TestEstimatorTracksWindowedExact(t *testing.T) {
	drive := estDrive(5, 6000, 60)
	last := drive[len(drive)-1].tick
	cfg := Config{W: 10, K: 4}
	est := newWindowEstimator(t, cfg)
	for _, u := range drive {
		est.updateAt(u.item, 1, u.tick)
	}
	est.Advance(last)

	exactFrom := func(minTick uint64) float64 {
		v := make(stream.Vector)
		for _, u := range drive {
			if u.tick >= minTick {
				v[u.item]++
			}
		}
		return v.Sum(gfunc.F2Func().Eval)
	}
	// The window covers (last-W, last] plus up to StaleBound stale ticks:
	// the estimate must land within eps of the exact sum over the ticks
	// actually covered.
	covered := last - cfg.W + 1 - est.Stale()
	exact := exactFrom(covered)
	got := est.Estimate()
	if re := util.RelErr(got, exact); re > 0.25 {
		t.Fatalf("windowed estimate %v vs covered-exact %v: rel err %.3f > 0.25", got, exact, re)
	}
	whole := exactFrom(0)
	if util.RelErr(got, whole) < 0.5 {
		t.Fatalf("windowed estimate %v suspiciously close to whole-stream exact %v: window not forgetting", got, whole)
	}
}

// TestEstimatorStaleReporting sanity-checks the Config/Now/Stale
// accessors the daemon surfaces.
func TestEstimatorStaleReporting(t *testing.T) {
	est := newWindowEstimator(t, Config{W: 8, K: 2})
	if est.Config().W != 8 || est.Config().K != 2 {
		t.Fatalf("config not preserved: %+v", est.Config())
	}
	est.Advance(100)
	if est.Now() != 100 {
		t.Fatalf("clock at %d, want 100", est.Now())
	}
	if est.Stale() > est.StaleBound() {
		t.Fatalf("stale %d > bound %d", est.Stale(), est.StaleBound())
	}
	// Panes are built lazily: a window that only ticked holds no
	// sketch storage at all; the first update pays for one pane.
	if len(est.panes) < 1 || est.SpaceBytes() != 0 {
		t.Fatalf("empty window: panes=%d space=%d, want space 0", len(est.panes), est.SpaceBytes())
	}
	est.Update(1, 1)
	if est.SpaceBytes() <= 0 {
		t.Fatalf("space still %d after an update", est.SpaceBytes())
	}
}

// chunkUpdates is 3×4096+17 updates over more distinct items than a
// tracker holds, so where a batch boundary falls shows in the candidates.
func chunkUpdates() []stream.Update {
	rng := util.NewSplitMix64(3)
	updates := make([]stream.Update, 3*4096+17)
	for i := range updates {
		updates[i] = stream.Update{Item: rng.Uint64n(1 << 14), Delta: rng.Int63n(5) + 1}
	}
	return updates
}

// TestEstimatorUpdateBatchChunks: one UpdateBatch of 3×4096+17 updates
// leaves the window exactly as the same updates fed in 4096-update
// batches — estimate and snapshot bytes — because the current pane takes
// a batch in 4096-update chunks.
func TestEstimatorUpdateBatchChunks(t *testing.T) {
	opts := core.Options{N: 1 << 14, M: 1 << 10, Eps: 0.25, Lambda: 1.0 / 16, Seed: 5}
	updates := chunkUpdates()
	feeds := []func(e *Window){
		func(e *Window) { e.UpdateBatch(updates) },
		func(e *Window) {
			for lo := 0; lo < len(updates); lo += 4096 {
				e.UpdateBatch(updates[lo:min(lo+4096, len(updates))])
			}
		},
	}
	var est [2]float64
	var blob [2][]byte
	for i, feed := range feeds {
		e, err := New(gfunc.F2Func(), opts, Config{W: 8})
		if err != nil {
			t.Fatal(err)
		}
		e.Advance(3)
		feed(e)
		est[i] = e.Estimate()
		if blob[i], err = e.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	if est[0] != est[1] || !bytes.Equal(blob[0], blob[1]) {
		t.Errorf("one batch: estimate %v; 4096-update batches: %v; snapshots equal: %v", est[0], est[1], bytes.Equal(blob[0], blob[1]))
	}
}

// TestWindowBucketsCostWhatTheyHold is the window's storage gate: a pane
// is a whole recursive stack, sized for the full stream, but one that
// has seen a few ticks of traffic holds its deep levels as tables
// (sketch.CountSketch, sparse), so the window's resident bytes are a
// fraction of its panes' budget. Resident bytes are a constant of the
// updates, unlike a heap reading. W = 16 at K = 4 keeps four live panes
// of four ticks each at the last tick.
func TestWindowBucketsCostWhatTheyHold(t *testing.T) {
	opts := core.Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7}
	e, err := New(gfunc.F2Func(), opts, Config{W: 16, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := util.NewSplitMix64(3)
	batch := make([]stream.Update, 1000)
	for tick := uint64(0); tick < 40; tick++ {
		e.Advance(tick)
		for i := range batch { // about 300 distinct items a tick
			batch[i] = stream.Update{Item: rng.Uint64n(1 << 20), Delta: 1}
			if i%10 != 0 {
				batch[i].Item = batch[i-i%10].Item + uint64(i%3)
			}
		}
		e.UpdateBatch(batch)
	}
	live, resident := 0, 0
	for _, p := range e.panes {
		if p != nil {
			live++
			resident += p.ResidentBytes()
		}
	}
	dense := live * core.NewOnePass(gfunc.F2Func(), opts).SpaceBytes()
	if live < 4 || dense != e.SpaceBytes() {
		t.Fatalf("%d live panes, budget %d bytes; want several, and the window's SpaceBytes %d", live, dense, e.SpaceBytes())
	}
	if 4*resident > dense {
		t.Errorf("%d live panes hold %d bytes, over a quarter of the %d their dense stacks would", live, resident, dense)
	}
	t.Logf("%d live panes hold %d of %d budgeted bytes (%.3f)", live, resident, dense, float64(resident)/float64(dense))
}

// TestWindowPerTickModel is the window's exact model: it keeps every
// tick's updates and, after every tick's updates, checks that the merged
// counters equal a serial sketch of exactly the ticks the window claims
// to cover — (now−W, now] plus the Stale() ticks before it — and that
// Stale() ≤ StaleBound(). It reads only the window's exported surface, so
// it judges any pane layout. Ticks advance by random strides, some
// past W+StaleBound (every live pane expires), over W < 40 at
// 2 ≤ K ≤ 6 and at K = MaxK.
func TestWindowPerTickModel(t *testing.T) {
	type logged struct {
		tick  uint64
		item  uint64
		delta int64
	}
	opts := core.Options{N: 1 << 6, M: 1 << 6, Eps: 0.5, Lambda: 1.0 / 4, Seed: 3}
	for w := uint64(1); w < 40; w++ {
		for _, k := range []int{2, 3, 4, 5, 6, MaxK} {
			cfg := Config{W: w, K: k}
			win, err := New(gfunc.F2Func(), opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := util.NewSplitMix64(w<<8 | uint64(k))
			var log []logged
			for tick, step := uint64(0), 0; step < 40; step++ {
				switch r := rng.Uint64n(10); {
				case r == 0:
					tick += w + win.StaleBound() + rng.Uint64n(3*w+1)
				case r < 3:
					tick += rng.Uint64n(w + 1)
				default:
					tick += rng.Uint64n(2)
				}
				win.Advance(tick)
				for i := rng.Uint64n(4); i > 0; i-- {
					u := logged{tick, rng.Uint64n(64), int64(rng.Uint64n(6)) - 2}
					win.Update(u.item, u.delta)
					log = append(log, u)
				}
				if win.Stale() > win.StaleBound() {
					t.Fatalf("%+v at tick %d: stale %d > bound %d", cfg, tick, win.Stale(), win.StaleBound())
				}
				covered := uint64(0)
				if tick >= w {
					covered = tick - w + 1
				}
				covered -= win.Stale()
				ref := win.newPane()
				for _, u := range log {
					if u.tick >= covered {
						ref.Update(u.item, u.delta)
					}
				}
				if got, want := win.Merged().CountersDigest(), ref.CountersDigest(); got != want {
					t.Fatalf("%+v at tick %d: merged counters %#x, want the sketch of ticks >= %d (%#x)", cfg, tick, got, covered, want)
				}
			}
		}
	}
}
