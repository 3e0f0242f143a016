package window

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/wire"
)

// DefaultK is the bucket-per-span-class capacity used when Config.K is 0.
const DefaultK = 2

// MaxW bounds Config.W. The histogram adds W to multiples of its largest
// span (MaxSpan, at most 2^59 when W ≤ MaxW): Advance tests a jump
// against W+MaxSpan and fastForward warms up over W+8·MaxSpan ticks, and
// far enough past this bound those sums would wrap.
const MaxW = 1 << 60

// MaxK bounds Config.K. At K ≥ W nothing compacts, so a larger K holds
// up to one bucket per tick, each a whole stack once it sees an update;
// at MaxK the stale bound is still about W/32.
const MaxK = 64

// Config parameterizes a sliding window. The JSON tags define the
// canonical encoding used inside backend Specs.
type Config struct {
	// W is the window length in ticks: estimates cover (now−W, now].
	// It must be in [1, MaxW].
	W uint64 `json:"w"`
	// K is the exponential-histogram capacity: at most K buckets per
	// power-of-two span class before the two oldest of that class merge.
	// Larger K means finer expiry granularity (smaller stale bound) and
	// more buckets. 0 means DefaultK; it must be in [2, MaxK].
	K int `json:"k"`
}

// Normalize resolves K's default and validates the configuration: the
// one place both happen, for New and for the backend Spec alike.
func (c Config) Normalize() (Config, error) {
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.W == 0 || c.W > MaxW {
		return Config{}, fmt.Errorf("window: Window.W must be between 1 and %d ticks, got %d", uint64(MaxW), c.W)
	}
	if c.K < 2 || c.K > MaxK {
		return Config{}, fmt.Errorf("window: Window.K must be between 2 and %d, got %d", MaxK, c.K)
	}
	return c, nil
}

// MaxSpan returns the largest bucket span the histogram will build for a
// normalized cfg: the smallest power of two at least ⌈W/K⌉. Compaction
// never merges past it, so the oldest bucket straddling the window
// boundary carries at most MaxSpan−1 stale ticks.
func MaxSpan(cfg Config) uint64 {
	k := uint64(cfg.K)
	target := cfg.W / k
	if cfg.W%k != 0 {
		target++
	}
	span := uint64(1)
	for span < target {
		span *= 2
	}
	return span
}

// bucket is one sealed or open segment of the tick line: the sketch of
// every update whose tick fell in [start, start+span). A bucket builds
// its sketch on its first update — sk is nil until then — so advancing
// the clock across empty ticks allocates nothing and a long idle period
// costs a cheap structural walk per tick, not a sketch construction per
// tick.
type bucket struct {
	start uint64
	span  uint64
	sk    *core.OnePassEstimator
}

// end returns the last tick the bucket covers.
func (b bucket) end() uint64 { return b.start + b.span - 1 }

// absorb adds sk, which the caller hands over, into the bucket: an empty
// bucket adopts it, a built one merges it.
func (b *bucket) absorb(sk *core.OnePassEstimator) {
	switch {
	case sk == nil:
	case b.sk == nil:
		b.sk = sk
	default:
		mustMerge(b.sk, sk)
	}
}

// Window is the windowed g-SUM estimator: an exponential histogram of
// one-pass estimator buckets answering Σ g(|v_i|) over the trailing
// cfg.W ticks. Updates land at the current tick and Advance moves the
// clock. The zero value is not usable; construct with New. Windows are
// not goroutine-safe (like every sketch in the repository).
type Window struct {
	g       gfunc.Func
	opts    core.Options
	cfg     Config
	maxSpan uint64
	now     uint64
	// buckets tile (expiry edge, now] contiguously, oldest first, with
	// spans non-increasing from oldest to newest; the last bucket is
	// always the open span-1 bucket at the current tick. The tiling is a
	// pure function of (cfg, tick sequence) — never of the data.
	buckets []bucket
	// fp is the configuration fingerprint and emptyBlob the serialized
	// form of a fresh bucket (both derived from one probe bucket at
	// construction; neither depends on data). emptyBlob ships empty
	// buckets without building them.
	fp        uint64
	emptyBlob []byte
}

// New builds an empty window of one-pass estimators for g at tick 0. The
// envelope is measured once and pinned into the options, so every bucket
// — and every staging bucket a snapshot decode builds — resolves to
// byte-identical configuration (the seed-discipline rule; the wire
// fingerprint checks it).
func New(g gfunc.Func, opts core.Options, cfg Config) (*Window, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	opts.Envelope = core.EnvelopeFor(g, opts)
	w := &Window{
		g:       g,
		opts:    opts,
		cfg:     cfg,
		maxSpan: MaxSpan(cfg),
		buckets: []bucket{{start: 0, span: 1}},
	}
	probe := w.newBucket()
	h := wire.Fingerprint(0, cfg.W)
	h = wire.Fingerprint(h, uint64(cfg.K))
	w.fp = wire.Fingerprint(h, probe.Fingerprint())
	if w.emptyBlob, err = probe.MarshalBinary(); err != nil {
		return nil, fmt.Errorf("window: serializing the empty bucket: %w", err)
	}
	return w, nil
}

func (w *Window) newBucket() *core.OnePassEstimator { return core.NewOnePass(w.g, w.opts) }

// Config returns the window's resolved configuration.
func (w *Window) Config() Config { return w.cfg }

// Now returns the current tick.
func (w *Window) Now() uint64 { return w.now }

// SpaceBytes sums the counter storage of every bucket that has seen an
// update (the others hold no sketch).
func (w *Window) SpaceBytes() int {
	total := 0
	for _, b := range w.buckets {
		if b.sk != nil {
			total += b.sk.SpaceBytes()
		}
	}
	return total
}

// Stale returns how many ticks older than the window the oldest bucket
// still carries: the realized approximation error of this instant.
func (w *Window) Stale() uint64 {
	if w.now < w.cfg.W {
		return 0 // the whole history is inside the window
	}
	cut := w.now - w.cfg.W // ticks <= cut are outside (now−W, now]
	if w.buckets[0].start > cut {
		return 0
	}
	return cut - w.buckets[0].start + 1
}

// StaleBound returns the worst-case Stale value, MaxSpan(cfg)−1: no
// estimate ever includes that many ticks beyond the window, and updates
// at least W+StaleBound ticks behind the clock are guaranteed expired.
func (w *Window) StaleBound() uint64 { return w.maxSpan - 1 }

// Advance moves the clock forward to tick, sealing the open bucket,
// compacting same-span buckets, and expiring buckets that fell wholly
// outside the window, once per elapsed tick, and returns the clock.
// Ticks at or before the current one are a no-op, so repeated
// synchronization calls (e.g. /v1/advance from several pushers) are safe.
//
// Cost is linear in W, not in the jump: a jump of up to W+maxSpan ticks
// steps each tick, and a longer one, which expires every current
// bucket, fast-forwards to the canonical structure at the target clock
// (see fastForward), which still steps W+8·maxSpan to W+9·maxSpan
// ticks. A step walks the bucket list: 0.1–0.5 µs at 20–100 buckets on
// an Intel Xeon, so a fast-forward takes about 0.7 s at W = 2^20, K = 2,
// and minutes at W = 2^30; a daemon holds its state lock throughout
// (ROADMAP item 16). The resulting bucket structure
// depends only on (Config, final clock) — every window visits every
// tick exactly once, however Advance was called — which is what lets
// identically-driven windows merge.
func (w *Window) Advance(tick uint64) uint64 {
	if tick <= w.now {
		return w.now
	}
	// Everything currently held expires during a jump of more than
	// W+maxSpan ticks (even a bucket that would first merge up to
	// maxSpan span has fallen wholly outside the window by then), so
	// the destination state carries no data and can be rebuilt directly.
	if tick-w.now > w.cfg.W+w.maxSpan {
		w.fastForward(tick)
	} else {
		w.stepTo(tick)
	}
	return w.now
}

// stepTo replays the clock one tick at a time.
func (w *Window) stepTo(tick uint64) {
	for w.now < tick {
		w.now++
		w.buckets = append(w.buckets, bucket{start: w.now, span: 1})
		w.compact()
		w.expire()
	}
}

// fastForward rebuilds the canonical all-empty bucket structure at
// tick in W+8·maxSpan to W+9·maxSpan steps. It relies on two properties of the
// histogram: the structure at clock T is a pure function of (Config,
// T), and past a warm-up of W+8·maxSpan ticks it is periodic in T with
// period maxSpan (shifting every boundary by the period) — the merge
// cascade and the expiry edge both repeat once the top span class is
// saturated. TestAdvanceFastForwardMatchesStepping pins the
// equivalence against naive stepping across configurations.
func (w *Window) fastForward(tick uint64) {
	warmup := w.cfg.W + 8*w.maxSpan
	target, shift := tick, uint64(0)
	if tick > warmup {
		shift = (tick - warmup) / w.maxSpan * w.maxSpan
		target = tick - shift
	}
	w.buckets = append(w.buckets[:0], bucket{start: 0, span: 1})
	w.now = 0
	w.stepTo(target)
	for i := range w.buckets {
		w.buckets[i].start += shift
	}
	w.now = tick
}

// compact restores the histogram invariant after a new span-1 bucket is
// appended: cascading from the smallest span up, whenever a span class
// holds more than K buckets, the two oldest of that class (adjacent, by
// the span-ordering invariant) merge into one bucket of twice the span.
// Spans never exceed maxSpan, which is what caps the stale bound.
func (w *Window) compact() {
	for span := uint64(1); span < w.maxSpan; span *= 2 {
		first, count := -1, 0
		for i, b := range w.buckets {
			if b.span == span {
				if first < 0 {
					first = i
				}
				count++
			}
		}
		if count <= w.cfg.K {
			return // classes above can only have overflowed via a merge below
		}
		older := &w.buckets[first]
		older.absorb(w.buckets[first+1].sk)
		older.span *= 2
		w.buckets = append(w.buckets[:first+1], w.buckets[first+2:]...)
	}
}

// mustMerge folds src into dst. Every bucket comes from newBucket, and
// merging identically-built estimators cannot fail; a failure is an
// invariant violation no caller can recover from mid-stream.
func mustMerge(dst, src *core.OnePassEstimator) {
	if err := dst.Merge(src); err != nil {
		panic("window: bucket merge failed: " + err.Error())
	}
}

// expire drops buckets whose entire span is outside (now−W, now]. The
// open bucket always covers the current tick, so at least one bucket
// survives.
func (w *Window) expire() {
	if w.now < w.cfg.W {
		return
	}
	cut := w.now - w.cfg.W
	drop := 0
	for drop < len(w.buckets)-1 && w.buckets[drop].end() <= cut {
		drop++
	}
	if drop > 0 {
		w.buckets = w.buckets[drop:]
	}
}

// open builds, if it has none yet, and returns the open bucket's sketch.
func (w *Window) open() *core.OnePassEstimator {
	b := &w.buckets[len(w.buckets)-1]
	if b.sk == nil {
		b.sk = w.newBucket()
	}
	return b.sk
}

// Update feeds one turnstile update at the current tick.
func (w *Window) Update(item uint64, delta int64) { w.open().Update(item, delta) }

// UpdateBatch feeds a batch of updates at the current tick through the
// open bucket's amortized batch path, in stream.BatchSize chunks.
func (w *Window) UpdateBatch(batch []stream.Update) { stream.Batches(batch, w.open().UpdateBatch) }

// Merged folds every bucket, oldest to newest, into a fresh estimator:
// the summary of the trailing window (plus at most StaleBound stale
// ticks). The fixed fold order keeps tracker state deterministic, so
// identical windows produce bit-identical merged estimators.
func (w *Window) Merged() *core.OnePassEstimator {
	out := w.newBucket()
	for _, b := range w.buckets {
		if b.sk != nil {
			mustMerge(out, b.sk)
		}
	}
	return out
}

// Estimate returns the g-SUM estimate over the trailing window (plus at
// most StaleBound stale ticks): EstimateFor the window's own g.
func (w *Window) Estimate() float64 { return w.EstimateFor(w.g) }

// EstimateFor returns the estimate for g over the same window, read from
// the same buckets (core.OnePassEstimator.EstimateFor).
func (w *Window) EstimateFor(g gfunc.Func) float64 { return w.Merged().EstimateFor(g) }

// Merge folds another window into w, bucket by bucket. Both windows
// must have the same fingerprint (Config, g and bucket options) and have
// been advanced through the same tick sequence — equal clocks imply equal bucket boundaries, which is
// verified in full before any bucket mutates (the merge contract's
// no-half-merged-state rule). This is the distributed mode: shard a
// ticked stream across workers, drive every worker's window through
// every tick, merge, and the result equals the single-window run
// bit for bit.
func (w *Window) Merge(other *Window) error {
	if w.fp != other.fp {
		return fmt.Errorf("window: fingerprint %#x is not the receiver's %#x (another W, K, seed or bucket configuration)", other.fp, w.fp)
	}
	if w.now != other.now {
		return fmt.Errorf("window: clock mismatch: %d vs %d (advance both to the same tick before merging)", w.now, other.now)
	}
	if len(w.buckets) != len(other.buckets) {
		return fmt.Errorf("window: bucket count mismatch: %d vs %d (windows saw different tick sequences)", len(w.buckets), len(other.buckets))
	}
	for i := range w.buckets {
		if w.buckets[i].start != other.buckets[i].start || w.buckets[i].span != other.buckets[i].span {
			return fmt.Errorf("window: bucket %d boundary mismatch: [%d,+%d) vs [%d,+%d)",
				i, w.buckets[i].start, w.buckets[i].span, other.buckets[i].start, other.buckets[i].span)
		}
	}
	for i, ob := range other.buckets {
		if ob.sk == nil {
			continue
		}
		if w.buckets[i].sk == nil {
			w.buckets[i].sk = w.newBucket()
		}
		mustMerge(w.buckets[i].sk, ob.sk)
	}
	return nil
}
