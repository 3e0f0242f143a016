package window

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gfunc"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
)

// newCS is a seed-disciplined CountSketch factory for bucket tests: the
// same dimensions and seed on every call.
func newCS() *sketch.CountSketch {
	return sketch.NewCountSketch(3, 64, util.NewSplitMix64(42))
}

func mustWindow(t *testing.T, cfg Config) *Window[*sketch.CountSketch] {
	t.Helper()
	w, err := New(cfg, newCS)
	if err != nil {
		t.Fatal(err)
	}
	return w
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
// histogram shape (power-of-two spans, tiling, span ordering, per-class
// capacity, stale bound) after every single update.
func TestWindowInvariants(t *testing.T) {
	for _, cfg := range []Config{{W: 1}, {W: 4}, {W: 16}, {W: 16, K: 4}, {W: 100, K: 3}, {W: 7, K: 8}} {
		w := mustWindow(t, cfg)
		for i, u := range randomDrive(7, 2000) {
			if err := w.Update(u.item, 1, u.tick); err != nil {
				t.Fatalf("cfg %+v update %d: %v", cfg, i, err)
			}
			if err := w.checkInvariants(); err != nil {
				t.Fatalf("cfg %+v after update %d (tick %d): %v", cfg, i, u.tick, err)
			}
		}
	}
}

// TestWindowMatchesSuffixSketch pins the core semantic: the merged
// window state equals, byte for byte, a single sketch fed exactly the
// updates from the oldest live bucket's first tick onward. The window
// is a lossless sketch of its covered tick range.
func TestWindowMatchesSuffixSketch(t *testing.T) {
	w := mustWindow(t, Config{W: 16, K: 2})
	drive := randomDrive(11, 3000)
	for _, u := range drive {
		if err := w.Update(u.item, 1, u.tick); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := w.Merged()
	if err != nil {
		t.Fatal(err)
	}
	covered := w.buckets[0].start
	ref := newCS()
	for _, u := range drive {
		if u.tick >= covered {
			ref.Update(u.item, 1)
		}
	}
	got, _ := merged.MarshalBinary()
	want, _ := ref.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatalf("merged window differs from the sketch of ticks >= %d", covered)
	}
}

// TestWindowExpiry asserts the documented forgetting guarantee: an item
// whose updates are at least W+StaleBound ticks behind the clock
// contributes nothing — its point estimate over the merged window is
// exactly what an empty window would answer.
func TestWindowExpiry(t *testing.T) {
	for _, cfg := range []Config{{W: 1}, {W: 8}, {W: 16, K: 4}, {W: 60, K: 3}} {
		w := mustWindow(t, cfg)
		const needle = uint64(99)
		for i := 0; i < 50; i++ {
			if err := w.Update(needle, 1000, 0); err != nil {
				t.Fatal(err)
			}
		}
		w.Advance(cfg.W + w.StaleBound())
		if err := w.checkInvariants(); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		merged, err := w.Merged()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := merged.MarshalBinary()
		empty, _ := newCS().MarshalBinary()
		if !bytes.Equal(got, empty) {
			t.Fatalf("cfg %+v: burst at tick 0 still present %d ticks later (stale %d, bound %d)",
				cfg, cfg.W+w.StaleBound(), w.Stale(), w.StaleBound())
		}
	}
}

// TestWindowStaleWithinBound checks the realized stale tick count never
// exceeds StaleBound across random drives and configurations.
func TestWindowStaleWithinBound(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, cfg := range []Config{{W: 8}, {W: 32, K: 2}, {W: 32, K: 8}, {W: 100, K: 5}} {
			w := mustWindow(t, cfg)
			for _, u := range randomDrive(seed, 1500) {
				if err := w.Update(u.item, 1, u.tick); err != nil {
					t.Fatal(err)
				}
				if w.Stale() > w.StaleBound() {
					t.Fatalf("seed %d cfg %+v: stale %d > bound %d", seed, cfg, w.Stale(), w.StaleBound())
				}
			}
		}
	}
}

// TestAdvanceFastForwardMatchesStepping pins fastForward's claim: for
// any jump large enough to trigger it, the resulting window equals
// naive tick-by-tick stepping byte for byte — across configurations,
// starting states (with live data that must expire), and jump targets
// probing every residue class of the period.
func TestAdvanceFastForwardMatchesStepping(t *testing.T) {
	for _, cfg := range []Config{{W: 1}, {W: 4}, {W: 7}, {W: 16, K: 2}, {W: 16, K: 4}, {W: 33, K: 6}, {W: 100, K: 3}, {W: 60, K: 5}} {
		ms := MaxSpan(cfg)
		for _, start := range []uint64{0, 3, cfg.W + 1, 5*ms + 2} {
			for _, jump := range []uint64{cfg.W + ms + 1, cfg.W + ms + 2, cfg.W + 9*ms + 1,
				cfg.W + 9*ms + 3, cfg.W + 40*ms + 5, 12345} {
				if jump <= cfg.W+ms {
					continue // stepping path; nothing to compare
				}
				fast := mustWindow(t, cfg)
				slow := mustWindow(t, cfg)
				for _, w := range []*Window[*sketch.CountSketch]{fast, slow} {
					w.stepTo(start)
					// Live data that the jump must expire.
					if err := w.Update(5, 100, start); err != nil {
						t.Fatal(err)
					}
				}
				fast.Advance(start + jump) // takes the fastForward path
				slow.stepTo(start + jump)  // ground truth
				if err := fast.checkInvariants(); err != nil {
					t.Fatalf("cfg %+v start %d jump %d: %v", cfg, start, jump, err)
				}
				fb, _ := fast.MarshalBinary()
				sb, _ := slow.MarshalBinary()
				if !bytes.Equal(fb, sb) {
					t.Fatalf("cfg %+v start %d jump %d: fast-forward diverges from stepping", cfg, start, jump)
				}
			}
		}
	}
}

// TestAdvanceHugeJumpIsCheap: advancing across an absurd number of
// ticks (e.g. a client posting wall-clock epoch seconds) completes
// immediately instead of replaying each tick.
func TestAdvanceHugeJumpIsCheap(t *testing.T) {
	w := mustWindow(t, Config{W: 3600, K: 4})
	if err := w.Update(1, 1, 0); err != nil {
		t.Fatal(err)
	}
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
	merged, err := w.Merged()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := merged.MarshalBinary()
	empty, _ := newCS().MarshalBinary()
	if !bytes.Equal(got, empty) {
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
				if err := w.UpdateBatch(batch, drive[lo].tick); err != nil {
					t.Fatal(err)
				}
				lo = hi
			}
		} else {
			for _, u := range drive {
				if err := w.Update(u.item, 1, u.tick); err != nil {
					t.Fatal(err)
				}
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

// TestWindowMergeErrors: structural mismatches must fail without
// touching state.
func TestWindowMergeErrors(t *testing.T) {
	a := mustWindow(t, Config{W: 8})
	b := mustWindow(t, Config{W: 16})
	if err := a.Merge(b); err == nil {
		t.Fatal("config mismatch not detected")
	}
	c := mustWindow(t, Config{W: 8})
	c.Advance(5)
	before, _ := a.MarshalBinary()
	if err := a.Merge(c); err == nil {
		t.Fatal("clock mismatch not detected")
	}
	after, _ := a.MarshalBinary()
	if !bytes.Equal(before, after) {
		t.Fatal("failed merge mutated the receiver")
	}
	if err := a.Update(1, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := a.Update(1, 1, 2); err == nil {
		t.Fatal("past tick not rejected")
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

func newWindowEstimator(t *testing.T, cfg Config) *Estimator {
	t.Helper()
	e, err := NewEstimator(gfunc.F2Func(),
		core.Options{N: 1 << 10, M: 1 << 10, Eps: 0.25, Seed: 9, Lambda: 1.0 / 16}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEstimatorSerialVsParallel: sharding a ticked stream across worker
// windows (contiguous chunks, every worker advanced through the full
// tick sequence) and merging must reproduce the serial windowed
// estimate bit for bit, and the serial snapshot byte for byte, for any
// worker count.
func TestEstimatorSerialVsParallel(t *testing.T) {
	drive := estDrive(21, 4000, 40)
	last := drive[len(drive)-1].tick
	cfg := Config{W: 12, K: 2}

	serial := newWindowEstimator(t, cfg)
	for _, u := range drive {
		if err := serial.Update(u.item, 1, u.tick); err != nil {
			t.Fatal(err)
		}
	}
	serial.Advance(last)
	wantEst := serial.Estimate()

	for _, workers := range []int{2, 3, 4} {
		shards := make([]*Estimator, workers)
		for i := range shards {
			shards[i] = newWindowEstimator(t, cfg)
		}
		for i := range shards {
			lo, hi := engine.Cut(len(drive), workers, i)
			for _, u := range drive[lo:hi] {
				if err := shards[i].Update(u.item, 1, u.tick); err != nil {
					t.Fatal(err)
				}
			}
			shards[i].Advance(last)
		}
		for i := 1; i < workers; i++ {
			if err := shards[0].Merge(shards[i]); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
		if got := shards[0].Estimate(); got != wantEst {
			t.Fatalf("workers=%d: estimate %v != serial %v", workers, got, wantEst)
		}
	}
}

// TestWindowSerialVsParallelSnapshots is the counter half of the
// sharding contract: for tracker-free buckets (plain CountSketch) the
// merged shard windows reproduce the serial window snapshot BYTE for
// byte, at every worker count. (Estimator snapshots additionally carry
// best-effort top-k tracker ids, which the merge contract only pins
// while trackers stay within capacity — see internal/core/merge.go —
// so the byte-level assertion lives at the counter layer.)
func TestWindowSerialVsParallelSnapshots(t *testing.T) {
	drive := randomDrive(17, 3000)
	last := drive[len(drive)-1].tick
	cfg := Config{W: 12, K: 3}
	serial := mustWindow(t, cfg)
	for _, u := range drive {
		if err := serial.Update(u.item, 1, u.tick); err != nil {
			t.Fatal(err)
		}
	}
	serial.Advance(last)
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5} {
		shards := make([]*Window[*sketch.CountSketch], workers)
		for i := range shards {
			shards[i] = mustWindow(t, cfg)
			lo, hi := engine.Cut(len(drive), workers, i)
			for _, u := range drive[lo:hi] {
				if err := shards[i].Update(u.item, 1, u.tick); err != nil {
					t.Fatal(err)
				}
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
		if err := est.Update(u.item, 1, u.tick); err != nil {
			t.Fatal(err)
		}
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
	// Buckets materialize lazily: a window that only ticked holds no
	// sketch storage at all; the first update pays for one bucket.
	if est.Buckets() < 1 || est.SpaceBytes() != 0 {
		t.Fatalf("empty window: buckets=%d space=%d, want space 0", est.Buckets(), est.SpaceBytes())
	}
	if err := est.Update(1, 1, est.Now()); err != nil {
		t.Fatal(err)
	}
	if est.SpaceBytes() <= 0 {
		t.Fatalf("space still %d after an update", est.SpaceBytes())
	}
}
