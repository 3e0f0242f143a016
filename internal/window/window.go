package window

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/wire"
)

// DefaultK is the pane capacity used when Config.K is 0.
const DefaultK = 2

// MaxW bounds Config.W at 2^60 ticks, 36 years even of nanosecond ticks.
// Pane arithmetic takes no sum past the clock, so the bound guards no
// overflow; it keeps the range of windows Open accepts, and so the Specs
// peers agree on, fixed.
const MaxW = 1 << 60

// MaxK bounds Config.K: a window holds at most K+1 panes, each a whole
// stack once it sees an update, and at MaxK the stale bound is still
// about W/32.
const MaxK = 64

// Config parameterizes a sliding window. The JSON tags define the
// canonical encoding used inside backend Specs.
type Config struct {
	// W is the window length in ticks: estimates cover (now−W, now].
	// It must be in [1, MaxW].
	W uint64 `json:"w"`
	// K is the pane capacity: panes are about W/K ticks wide, so the
	// window holds at most K+1 of them. Larger K means finer expiry
	// granularity (smaller stale bound) and more panes. 0 means DefaultK;
	// it must be in [2, MaxK].
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

// MaxSpan returns the pane width s for a normalized cfg: the smallest
// power of two at least ⌈W/K⌉. W consecutive ticks touch at most K+1
// panes, and the oldest live pane, which straddles the window boundary,
// carries at most s−1 stale ticks.
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

// Window is the windowed g-SUM estimator: one-pass estimator panes
// answering Σ g(|v_i|) over the trailing cfg.W ticks. Pane j holds every
// update whose tick fell in [j·s, (j+1)·s), s = MaxSpan(cfg). Updates
// land in the pane holding the current tick and Advance moves the clock.
// The zero value is not usable; construct with New. Windows are not
// goroutine-safe (like every sketch in the repository).
type Window struct {
	g    gfunc.Func
	opts core.Options
	cfg  Config
	span uint64 // pane width s
	now  uint64
	// panes are the live panes, oldest first: panes[i] is pane
	// oldest()/span+i, and the last holds the clock. Which panes are live
	// is a function of (cfg, now) alone, never of the data. A pane builds
	// its stack on its first update, so it is nil until then; the slice
	// has capacity K+1 and is never longer.
	panes []*core.OnePassEstimator
	// fp is the configuration fingerprint and emptyBlob the serialized
	// form of a fresh pane (both derived from one probe pane at
	// construction; neither depends on data). emptyBlob ships unbuilt
	// panes without building them.
	fp        uint64
	emptyBlob []byte
}

// New builds an empty window of one-pass estimators for g at tick 0. The
// envelope is measured once and pinned into the options, so every pane
// — and every staging pane a snapshot decode builds — resolves to
// byte-identical configuration (the seed-discipline rule; the wire
// fingerprint checks it).
func New(g gfunc.Func, opts core.Options, cfg Config) (*Window, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	opts.Envelope = core.EnvelopeFor(g, opts)
	w := &Window{
		g:     g,
		opts:  opts,
		cfg:   cfg,
		span:  MaxSpan(cfg),
		panes: make([]*core.OnePassEstimator, 1, cfg.K+1),
	}
	probe := w.newPane()
	h := wire.Fingerprint(0, cfg.W)
	h = wire.Fingerprint(h, uint64(cfg.K))
	w.fp = wire.Fingerprint(h, probe.Fingerprint())
	if w.emptyBlob, err = probe.MarshalBinary(); err != nil {
		return nil, fmt.Errorf("window: serializing the empty pane: %w", err)
	}
	return w, nil
}

func (w *Window) newPane() *core.OnePassEstimator { return core.NewOnePass(w.g, w.opts) }

// Config returns the window's resolved configuration.
func (w *Window) Config() Config { return w.cfg }

// Now returns the current tick.
func (w *Window) Now() uint64 { return w.now }

// SpaceBytes sums the counter storage of every pane that has seen an
// update (the others hold no sketch).
func (w *Window) SpaceBytes() int {
	total := 0
	for _, p := range w.panes {
		if p != nil {
			total += p.SpaceBytes()
		}
	}
	return total
}

// oldest returns the first tick of the oldest live pane: the pane holding
// now−W+1, or tick 0 while the window still covers the whole history.
func (w *Window) oldest() uint64 {
	if w.now < w.cfg.W {
		return 0
	}
	first := w.now - w.cfg.W + 1
	return first - first%w.span
}

// Stale returns how many ticks older than the window the oldest pane
// still carries: the realized approximation error of this instant.
func (w *Window) Stale() uint64 {
	if w.now < w.cfg.W {
		return 0 // the whole history is inside the window
	}
	return w.now - w.cfg.W + 1 - w.oldest()
}

// StaleBound returns the worst-case Stale value, MaxSpan(cfg)−1: no
// estimate ever includes that many ticks beyond the window, and updates
// at least W+StaleBound ticks behind the clock are guaranteed expired.
func (w *Window) StaleBound() uint64 { return w.span - 1 }

// Advance moves the clock forward to tick, drops the panes that end at
// or before tick−W and opens empty ones up to the pane holding tick, and
// returns the clock. Ticks at or before the current one are a no-op, so
// repeated synchronization calls (e.g. /v1/advance from several pushers)
// are safe. It touches at most K+1 pane slots whatever the jump or W, and
// the panes it leaves depend only on (Config, final clock), however
// Advance was called, which is what lets identically-driven windows merge.
func (w *Window) Advance(tick uint64) uint64 {
	if tick <= w.now {
		return w.now
	}
	from := w.oldest()
	w.now = tick
	drop := min((w.oldest()-from)/w.span, uint64(len(w.panes)))
	kept := copy(w.panes, w.panes[drop:])
	clear(w.panes[kept:])
	w.panes = w.panes[:(w.now-w.oldest())/w.span+1]
	return w.now
}

// mustMerge folds src into dst. Every pane comes from newPane, and
// merging identically-built estimators cannot fail; a failure is an
// invariant violation no caller can recover from mid-stream.
func mustMerge(dst, src *core.OnePassEstimator) {
	if err := dst.Merge(src); err != nil {
		panic("window: pane merge failed: " + err.Error())
	}
}

// pane builds, if it has none yet, and returns live pane i's stack.
func (w *Window) pane(i int) *core.OnePassEstimator {
	if w.panes[i] == nil {
		w.panes[i] = w.newPane()
	}
	return w.panes[i]
}

// Update feeds one turnstile update at the current tick.
func (w *Window) Update(item uint64, delta int64) { w.pane(len(w.panes)-1).Update(item, delta) }

// UpdateBatch feeds a batch of updates at the current tick through the
// current pane's amortized batch path, in stream.BatchSize chunks.
func (w *Window) UpdateBatch(batch []stream.Update) {
	stream.Batches(batch, w.pane(len(w.panes)-1).UpdateBatch)
}

// Merged folds every pane, oldest to newest, into a fresh estimator:
// the summary of the trailing window (plus at most StaleBound stale
// ticks). The fixed fold order keeps tracker state deterministic, so
// identical windows produce bit-identical merged estimators.
func (w *Window) Merged() *core.OnePassEstimator {
	out := w.newPane()
	for _, p := range w.panes {
		if p != nil {
			mustMerge(out, p)
		}
	}
	return out
}

// Estimate returns the g-SUM estimate over the trailing window (plus at
// most StaleBound stale ticks): EstimateFor the window's own g.
func (w *Window) Estimate() float64 { return w.EstimateFor(w.g) }

// EstimateFor returns the estimate for g over the same window, read from
// the same panes (core.OnePassEstimator.EstimateFor).
func (w *Window) EstimateFor(g gfunc.Func) float64 { return w.Merged().EstimateFor(g) }

// Merge folds another window into w, pane by pane. Both windows must
// have the same fingerprint (Config, g and pane options) and the same
// clock, which gives them the same live panes; both are checked before
// any pane mutates (the merge contract's no-half-merged-state rule).
// This is the distributed mode: shard a ticked stream across workers,
// advance every worker's window to the same tick, merge, and the result
// equals the single-window run bit for bit.
func (w *Window) Merge(other *Window) error {
	if w.fp != other.fp {
		return fmt.Errorf("window: fingerprint %#x is not the receiver's %#x (another W, K, seed or pane configuration)", other.fp, w.fp)
	}
	if w.now != other.now {
		return fmt.Errorf("window: clock mismatch: %d vs %d (advance both to the same tick before merging)", w.now, other.now)
	}
	for i, p := range other.panes {
		if p != nil {
			mustMerge(w.pane(i), p)
		}
	}
	return nil
}
