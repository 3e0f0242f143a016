package window

import (
	"fmt"

	"repro/internal/stream"
	"repro/internal/wire"
)

// Sketch is the bucket contract: a mergeable, wire-capable summary. It
// is satisfied by every linear sketch in the repository (the raw
// sketches, the heavy-hitter layer, the public estimators). The Merge,
// Fingerprint, and UnmarshalBinary methods carry the usual
// seed-discipline obligations (see internal/wire).
type Sketch[S any] interface {
	// Update feeds one turnstile update (item, delta).
	Update(item uint64, delta int64)
	// UpdateBatch feeds a batch, leaving the counters as the equivalent
	// Update calls would (linearity).
	UpdateBatch(batch []stream.Update)
	// SpaceBytes reports counter storage.
	SpaceBytes() int
	// Merge folds an identically-configured, same-seed sketch into the
	// receiver: the state of the union stream.
	Merge(other S) error
	Fingerprint() uint64
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// DefaultK is the bucket-per-span-class capacity used when Config.K is 0.
const DefaultK = 2

// Config parameterizes a sliding window. The JSON tags define the
// canonical encoding used inside backend Specs.
type Config struct {
	// W is the window length in ticks: estimates cover (now−W, now].
	// It must be at least 1.
	W uint64 `json:"w"`
	// K is the exponential-histogram capacity: at most K buckets per
	// power-of-two span class before the two oldest of that class merge.
	// Larger K means finer expiry granularity (smaller stale bound) and
	// more buckets. 0 means DefaultK; values below 2 are rejected.
	K int `json:"k"`
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = DefaultK
	}
	return c
}

func (c Config) validate() error {
	if c.W == 0 {
		return fmt.Errorf("window: W must be at least 1 tick")
	}
	if c.K < 2 {
		return fmt.Errorf("window: K must be at least 2, got %d", c.K)
	}
	return nil
}

// MaxSpan returns the largest bucket span the histogram will build for
// cfg: the smallest power of two at least ⌈W/K⌉. Compaction never
// merges past it, so the oldest bucket straddling the window boundary
// carries at most MaxSpan−1 stale ticks.
func MaxSpan(cfg Config) uint64 {
	cfg = cfg.withDefaults()
	target := (cfg.W + uint64(cfg.K) - 1) / uint64(cfg.K)
	span := uint64(1)
	for span < target {
		span *= 2
	}
	return span
}

// bucket is one sealed or open segment of the tick line: the sketch of
// every update whose tick fell in [start, start+span). Buckets
// materialize their sketch lazily — sk is only valid when live is true
// — so advancing the clock across empty ticks allocates nothing and a
// long idle period costs a cheap structural walk per tick, not a sketch
// construction per tick.
type bucket[S Sketch[S]] struct {
	start uint64
	span  uint64
	live  bool
	sk    S
}

// end returns the last tick the bucket covers.
func (b bucket[S]) end() uint64 { return b.start + b.span - 1 }

// Window is a sliding-window summary: an exponential histogram of
// buckets, each bucket one S, covering the trailing cfg.W ticks. The
// zero value is not usable; construct with New. Windows are not
// goroutine-safe (like every sketch in the repository).
type Window[S Sketch[S]] struct {
	cfg       Config
	maxSpan   uint64
	newSketch func() S
	now       uint64
	// buckets tile (expiry edge, now] contiguously, oldest first, with
	// spans non-increasing from oldest to newest; the last bucket is
	// always the open span-1 bucket at the current tick. The tiling is a
	// pure function of (cfg, tick sequence) — never of the data.
	buckets []bucket[S]
	// fp is the configuration fingerprint and emptyBlob the serialized
	// form of a fresh sketch (both derived from one probe sketch at
	// construction; neither depends on data). emptyBlob ships dead
	// buckets without materializing them.
	fp        uint64
	emptyBlob []byte
}

// New builds an empty window at tick 0. newSketch must return an
// identically-configured, same-seed sketch on every call (the
// seed-discipline rule): buckets built by it merge with one another and
// with decoded snapshots.
func New[S Sketch[S]](cfg Config, newSketch func() S) (*Window[S], error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if newSketch == nil {
		return nil, fmt.Errorf("window: New needs a sketch factory")
	}
	w := &Window[S]{
		cfg:       cfg,
		maxSpan:   MaxSpan(cfg),
		newSketch: newSketch,
		buckets:   []bucket[S]{{start: 0, span: 1}},
	}
	// One probe sketch yields both construction-time derivatives: the
	// configuration fingerprint and the wire image of an empty bucket.
	probe := newSketch()
	h := wire.Fingerprint(0, cfg.W)
	h = wire.Fingerprint(h, uint64(cfg.K))
	w.fp = wire.Fingerprint(h, probe.Fingerprint())
	blob, err := probe.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("window: serializing the empty sketch: %w", err)
	}
	w.emptyBlob = blob
	return w, nil
}

// Config returns the window's resolved configuration.
func (w *Window[S]) Config() Config { return w.cfg }

// Now returns the current tick.
func (w *Window[S]) Now() uint64 { return w.now }

// Buckets returns the number of live buckets, O(K·log(W/K) + K).
func (w *Window[S]) Buckets() int { return len(w.buckets) }

// SpaceBytes sums the counter storage of every materialized bucket
// (buckets that never saw an update hold no sketch).
func (w *Window[S]) SpaceBytes() int {
	total := 0
	for _, b := range w.buckets {
		if b.live {
			total += b.sk.SpaceBytes()
		}
	}
	return total
}

// Stale returns how many ticks older than the window the oldest bucket
// still carries: the realized approximation error of this instant.
func (w *Window[S]) Stale() uint64 {
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
func (w *Window[S]) StaleBound() uint64 { return w.maxSpan - 1 }

// Advance moves the clock forward to tick, sealing the open bucket,
// compacting same-span buckets, and expiring buckets that fell wholly
// outside the window, once per elapsed tick. Ticks at or before the
// current one are a no-op, so repeated synchronization calls (e.g.
// /v1/advance from several pushers) are safe.
//
// Cost is O(min(elapsed, W+maxSpan)) regardless of the jump size: a
// jump large enough to expire every current bucket fast-forwards to
// the canonical structure at the target clock instead of replaying
// each tick (see fastForward), so even an Advance across billions of
// idle ticks returns immediately. The resulting bucket structure
// depends only on (Config, final clock) — every window visits every
// tick exactly once, however Advance was called — which is what lets
// identically-driven windows merge.
func (w *Window[S]) Advance(tick uint64) {
	if tick <= w.now {
		return
	}
	// Everything currently held expires during a jump of more than
	// W+maxSpan ticks (even a bucket that would first merge up to
	// maxSpan span has fallen wholly outside the window by then), so
	// the destination state carries no data and can be rebuilt directly.
	if tick-w.now > w.cfg.W+w.maxSpan {
		w.fastForward(tick)
		return
	}
	w.stepTo(tick)
}

// stepTo replays the clock one tick at a time.
func (w *Window[S]) stepTo(tick uint64) {
	for w.now < tick {
		w.now++
		w.buckets = append(w.buckets, bucket[S]{start: w.now, span: 1})
		w.compact()
		w.expire()
	}
}

// fastForward rebuilds the canonical all-empty bucket structure at
// tick in O(W+maxSpan) steps. It relies on two properties of the
// histogram: the structure at clock T is a pure function of (Config,
// T), and past a warm-up of W+8·maxSpan ticks it is periodic in T with
// period maxSpan (shifting every boundary by the period) — the merge
// cascade and the expiry edge both repeat once the top span class is
// saturated. TestAdvanceFastForwardMatchesStepping pins the
// equivalence against naive stepping across configurations.
func (w *Window[S]) fastForward(tick uint64) {
	warmup := w.cfg.W + 8*w.maxSpan
	target, shift := tick, uint64(0)
	if tick > warmup {
		shift = (tick - warmup) / w.maxSpan * w.maxSpan
		target = tick - shift
	}
	w.buckets = append(w.buckets[:0], bucket[S]{start: 0, span: 1})
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
func (w *Window[S]) compact() {
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
		older, newer := &w.buckets[first], w.buckets[first+1]
		switch {
		case !newer.live:
			// Nothing to fold in; the older half keeps its state.
		case !older.live:
			// Adopt the newer half's sketch (exclusive ownership moves).
			older.sk, older.live = newer.sk, true
		default:
			// Merging identically-built sketches cannot fail; a failure
			// means the factory broke seed discipline, which no caller can
			// recover from mid-stream.
			if err := older.sk.Merge(newer.sk); err != nil {
				panic(fmt.Sprintf("window: bucket merge failed (factory violated seed discipline?): %v", err))
			}
		}
		older.span *= 2
		w.buckets = append(w.buckets[:first+1], w.buckets[first+2:]...)
	}
}

// expire drops buckets whose entire span is outside (now−W, now]. The
// open bucket always covers the current tick, so at least one bucket
// survives.
func (w *Window[S]) expire() {
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

// Update feeds one turnstile update stamped with its tick, advancing
// the clock first if the tick is ahead of it. Ticks must be
// non-decreasing across calls; a past tick is an error (the bucket it
// belonged to may already be sealed, merged, or expired).
func (w *Window[S]) Update(item uint64, delta int64, tick uint64) error {
	if tick < w.now {
		return fmt.Errorf("window: tick %d is in the past (clock at %d); ticks must be non-decreasing", tick, w.now)
	}
	w.Advance(tick)
	w.open().sk.Update(item, delta)
	return nil
}

// open materializes and returns the open bucket.
func (w *Window[S]) open() *bucket[S] {
	b := &w.buckets[len(w.buckets)-1]
	if !b.live {
		b.sk, b.live = w.newSketch(), true
	}
	return b
}

// UpdateBatch feeds a batch of updates that all share one tick through
// the open bucket's amortized batch path, in stream.BatchSize chunks.
func (w *Window[S]) UpdateBatch(batch []stream.Update, tick uint64) error {
	if tick < w.now {
		return fmt.Errorf("window: tick %d is in the past (clock at %d); ticks must be non-decreasing", tick, w.now)
	}
	w.Advance(tick)
	stream.Batches(batch, w.open().sk.UpdateBatch)
	return nil
}

// Merged folds every live bucket, oldest to newest, into a freshly
// built sketch: the summary of the trailing window (plus at most
// StaleBound stale ticks), ready for whatever queries S answers. The
// fixed fold order keeps auxiliary tracker state deterministic, so
// identical windows produce bit-identical merged sketches.
func (w *Window[S]) Merged() (S, error) {
	out := w.newSketch()
	for _, b := range w.buckets {
		if !b.live {
			continue
		}
		if err := out.Merge(b.sk); err != nil {
			return out, fmt.Errorf("window: merging bucket [%d,+%d): %w", b.start, b.span, err)
		}
	}
	return out, nil
}

// Merge folds another window into w, bucket by bucket. Both windows
// must have the same Config and have been advanced through the same
// tick sequence — equal clocks imply equal bucket boundaries, which is
// verified in full before any bucket mutates (the merge contract's
// no-half-merged-state rule). This is the distributed mode: shard a
// ticked stream across workers, drive every worker's window through
// every tick, merge, and the result equals the single-window run
// bit for bit.
func (w *Window[S]) Merge(other *Window[S]) error {
	if w.cfg != other.cfg {
		return fmt.Errorf("window: config mismatch: %+v vs %+v", w.cfg, other.cfg)
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
	for i := range w.buckets {
		ob := other.buckets[i]
		if !ob.live {
			continue
		}
		if !w.buckets[i].live {
			w.buckets[i].sk, w.buckets[i].live = w.newSketch(), true
		}
		if err := w.buckets[i].sk.Merge(ob.sk); err != nil {
			return fmt.Errorf("window: bucket %d: %w", i, err)
		}
	}
	return nil
}

// checkInvariants validates the histogram shape; tests call it after
// every mutation. It returns an error naming the first violation.
func (w *Window[S]) checkInvariants() error {
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
