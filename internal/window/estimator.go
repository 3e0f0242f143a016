package window

import (
	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
)

// Estimator is the windowed g-SUM estimator: a Window whose buckets are
// core.OnePassEstimator instances, answering Σ g(|v_i|) over the
// trailing W ticks. It is what the daemon's "window" backend and the
// bench runner's windowed mode serve.
type Estimator struct {
	g   gfunc.Func
	win *Window[*core.OnePassEstimator]
}

// NewEstimator builds a windowed one-pass estimator for g. The envelope
// is measured once and pinned into the options, so every bucket — and
// every staging estimator a snapshot decode builds — resolves to
// byte-identical configuration (the seed-discipline rule; the wire
// fingerprint checks it).
func NewEstimator(g gfunc.Func, opts core.Options, cfg Config) (*Estimator, error) {
	opts.Envelope = core.EnvelopeFor(g, opts)
	win, err := New(cfg, func() *core.OnePassEstimator { return core.NewOnePass(g, opts) })
	if err != nil {
		return nil, err
	}
	return &Estimator{g: g, win: win}, nil
}

// Update feeds one time-stamped turnstile update.
func (e *Estimator) Update(item uint64, delta int64, tick uint64) error {
	return e.win.Update(item, delta, tick)
}

// UpdateBatch feeds a batch of updates that all share one tick.
func (e *Estimator) UpdateBatch(batch []stream.Update, tick uint64) error {
	return e.win.UpdateBatch(batch, tick)
}

// Advance moves the clock to tick (no-op for past ticks).
func (e *Estimator) Advance(tick uint64) { e.win.Advance(tick) }

// Now returns the current tick.
func (e *Estimator) Now() uint64 { return e.win.Now() }

// Config returns the window configuration.
func (e *Estimator) Config() Config { return e.win.Config() }

// Buckets returns the live bucket count.
func (e *Estimator) Buckets() int { return e.win.Buckets() }

// Stale reports how many ticks beyond the window the current estimate
// still includes; StaleBound is its worst case (see the package doc).
func (e *Estimator) Stale() uint64 { return e.win.Stale() }

// StaleBound returns the documented worst-case stale tick count.
func (e *Estimator) StaleBound() uint64 { return e.win.StaleBound() }

// SpaceBytes sums counter storage across buckets.
func (e *Estimator) SpaceBytes() int { return e.win.SpaceBytes() }

// Estimate returns the g-SUM estimate over the trailing window (plus at
// most StaleBound stale ticks): EstimateFor the window's own g.
func (e *Estimator) Estimate() float64 { return e.EstimateFor(e.g) }

// EstimateFor returns the estimate for g over the same window, read from
// the same buckets (core.OnePassEstimator.EstimateFor). It folds the live
// buckets into a fresh estimator in deterministic order, so identical
// windows estimate bit-identically.
func (e *Estimator) EstimateFor(g gfunc.Func) float64 {
	merged, err := e.win.Merged()
	if err != nil {
		// Buckets come from one factory; a merge failure is an invariant
		// violation, not an input error.
		panic("window: " + err.Error())
	}
	return merged.EstimateFor(g)
}

// Merge folds another estimator's window into e (same configuration,
// seed, and tick sequence required; see Window.Merge).
func (e *Estimator) Merge(other *Estimator) error { return e.win.Merge(other.win) }

// Fingerprint digests the window shape and bucket configuration.
func (e *Estimator) Fingerprint() uint64 { return e.win.Fingerprint() }

// MarshalBinary serializes the window (see Window.MarshalBinary).
func (e *Estimator) MarshalBinary() ([]byte, error) { return e.win.MarshalBinary() }

// UnmarshalBinary adds a serialized window into e (merge semantics; see
// Window.UnmarshalBinary).
func (e *Estimator) UnmarshalBinary(data []byte) error { return e.win.UnmarshalBinary(data) }
