package window

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

// smallOpts size the buckets of the structural tests: two levels whose
// trackers (383 candidates) hold every item randomDrive draws, so merged
// and serial buckets agree byte for byte, trackers included.
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

// checkInvariants validates the histogram shape; tests call it after
// every mutation. It returns an error naming the first violation.
func (w *Window) checkInvariants() error {
	if len(w.buckets) == 0 {
		return fmt.Errorf("window: no buckets")
	}
	open := w.buckets[len(w.buckets)-1]
	if open.start != w.now || open.span != 1 {
		return fmt.Errorf("window: open bucket [%d,+%d) does not sit at the clock %d", open.start, open.span, w.now)
	}
	counts := map[uint64]int{}
	for i, b := range w.buckets {
		if b.span == 0 || b.span&(b.span-1) != 0 {
			return fmt.Errorf("window: bucket %d span %d is not a power of two", i, b.span)
		}
		if b.span > w.maxSpan {
			return fmt.Errorf("window: bucket %d span %d exceeds max span %d", i, b.span, w.maxSpan)
		}
		if i > 0 {
			if b.start != w.buckets[i-1].end()+1 {
				return fmt.Errorf("window: bucket %d does not tile: starts at %d after end %d", i, b.start, w.buckets[i-1].end())
			}
			if b.span > w.buckets[i-1].span {
				return fmt.Errorf("window: bucket %d span %d exceeds older span %d", i, b.span, w.buckets[i-1].span)
			}
		}
		if b.span < w.maxSpan {
			counts[b.span]++
		}
	}
	for span, c := range counts {
		if c > w.cfg.K {
			return fmt.Errorf("window: %d buckets of span %d exceed K=%d", c, span, w.cfg.K)
		}
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
// histogram shape (power-of-two spans, tiling, span ordering, per-class
// capacity, stale bound) after every single update.
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

// TestWindowMatchesSuffixSketch pins the core semantic: the merged
// window state equals, byte for byte, a single sketch fed exactly the
// updates from the oldest live bucket's first tick onward. The window
// is a lossless sketch of its covered tick range.
func TestWindowMatchesSuffixSketch(t *testing.T) {
	w := mustWindow(t, Config{W: 16, K: 2})
	drive := randomDrive(11, 3000)
	for _, u := range drive {
		w.updateAt(u.item, 1, u.tick)
	}
	covered := w.buckets[0].start
	ref := w.newBucket()
	for _, u := range drive {
		if u.tick >= covered {
			ref.Update(u.item, 1)
		}
	}
	got, _ := w.Merged().MarshalBinary()
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
			w.updateAt(needle, 1000, 0)
		}
		w.Advance(cfg.W + w.StaleBound())
		if err := w.checkInvariants(); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		got, _ := w.Merged().MarshalBinary()
		if !bytes.Equal(got, w.emptyBlob) {
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
				w.updateAt(u.item, 1, u.tick)
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
		cfg, _ := cfg.Normalize()
		ms := MaxSpan(cfg)
		for _, start := range []uint64{0, 3, cfg.W + 1, 5*ms + 2} {
			for _, jump := range []uint64{cfg.W + ms + 1, cfg.W + ms + 2, cfg.W + 9*ms + 1,
				cfg.W + 9*ms + 3, cfg.W + 40*ms + 5, 12345} {
				if jump <= cfg.W+ms {
					continue // stepping path; nothing to compare
				}
				fast := mustWindow(t, cfg)
				slow := mustWindow(t, cfg)
				for _, w := range []*Window{fast, slow} {
					w.stepTo(start)
					// Live data that the jump must expire.
					w.updateAt(5, 100, start)
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
		serial.updateAt(u.item, 1, u.tick)
	}
	serial.Advance(last)
	wantEst := serial.Estimate()

	for _, workers := range []int{2, 3, 4} {
		shards := make([]*Window, workers)
		for i := range shards {
			shards[i] = newWindowEstimator(t, cfg)
		}
		for i := range shards {
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
		if got := shards[0].Estimate(); got != wantEst {
			t.Fatalf("workers=%d: estimate %v != serial %v", workers, got, wantEst)
		}
	}
}

// TestWindowSerialVsParallelSnapshots is the byte half of the sharding
// contract: the merged shard windows reproduce the serial window
// snapshot BYTE for byte, at every worker count. The drive's items stay
// inside the buckets' trackers, the regime where the merge contract pins
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
	// Buckets are built lazily: a window that only ticked holds no
	// sketch storage at all; the first update pays for one bucket.
	if len(est.buckets) < 1 || est.SpaceBytes() != 0 {
		t.Fatalf("empty window: buckets=%d space=%d, want space 0", len(est.buckets), est.SpaceBytes())
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
// batches — estimate and snapshot bytes — because the open bucket takes
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

// TestWindowBucketsCostWhatTheyHold is the window's storage gate: a bucket
// is a whole recursive stack, sized for the full stream, but one that
// has seen a few ticks of traffic holds its deep levels as tables
// (sketch.CountSketch, sparse), so the window's resident bytes are a
// fraction of its buckets' budget. Resident bytes are a constant of the
// updates, unlike a heap reading.
func TestWindowBucketsCostWhatTheyHold(t *testing.T) {
	opts := core.Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7}
	e, err := New(gfunc.F2Func(), opts, Config{W: 16, K: 2})
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
	for _, b := range e.buckets {
		if b.sk != nil {
			live++
			resident += b.sk.ResidentBytes()
		}
	}
	dense := live * core.NewOnePass(gfunc.F2Func(), opts).SpaceBytes()
	if live < 4 || dense != e.SpaceBytes() {
		t.Fatalf("%d live buckets, budget %d bytes; want several, and the window's SpaceBytes %d", live, dense, e.SpaceBytes())
	}
	if 4*resident > dense {
		t.Errorf("%d live buckets hold %d bytes, over a quarter of the %d their dense stacks would", live, resident, dense)
	}
	t.Logf("%d live buckets hold %d of %d budgeted bytes (%.3f)", live, resident, dense, float64(resident)/float64(dense))
}
