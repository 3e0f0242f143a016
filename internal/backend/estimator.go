package backend

import (
	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/window"
)

// Estimator is the unified contract every registered kind satisfies:
// streaming ingestion, an estimate, and the merge-semantics wire format
// (UnmarshalBinary ADDS a serialized shard into the receiver; the wire
// fingerprint rejects payloads from a different configuration). Open
// returns one of these for any Spec; richer behavior is reached through
// the optional capability interfaces below.
//
// Counters are int64 and wrap on overflow, which keeps them linear. An
// overflowed frequency reads as its wrapped value and magnitudes saturate
// at MaxInt64, so an overflowed estimate is the g-SUM of the wrapped
// frequency vector: finite whenever g(MaxInt64) is, never a panic, and
// unrelated to the true sum.
type Estimator interface {
	// Update feeds one turnstile update.
	Update(item uint64, delta int64)
	// UpdateBatch feeds a batch of updates through the amortized path,
	// leaving the state exactly as the equivalent Update calls would.
	UpdateBatch(batch []stream.Update)
	// Estimate returns the kind's headline estimate (the g-SUM for the
	// estimator kinds, F2 for countsketch, the cover weight sum for
	// heavy).
	Estimate() float64
	// SpaceBytes reports total counter storage.
	SpaceBytes() int
	// Fingerprint digests the estimator's configuration (the value
	// checked by the wire header on decode).
	Fingerprint() uint64
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// Windowed is the capability of kinds with a tick clock (KindWindow):
// Advance moves time forward and Estimate covers only the trailing
// window. Obtain it by type-asserting an Open result.
type Windowed interface {
	// Advance moves the clock to tick (past ticks are a no-op) and
	// returns the resulting clock value.
	Advance(tick uint64) uint64
	// Now returns the current tick.
	Now() uint64
	// Stale reports how many ticks beyond the window the current
	// estimate still includes.
	Stale() uint64
	// Config returns the window configuration.
	Config() window.Config
}

// TwoPass is the capability of kinds that replay the stream (KindTwoPass):
// feed every update, call FinishPass1, feed every update again, then
// Estimate.
type TwoPass interface {
	FinishPass1()
}

// PointQuerier is the capability of kinds answering per-item frequency
// queries (KindCountSketch).
type PointQuerier interface {
	EstimateItem(item uint64) int64
	EstimateF2() float64
}

// FuncQuerier is the capability of kinds answering post-hoc g-SUM
// queries for arbitrary catalog functions from one state (KindOnePass,
// KindSharded, KindWindow: the §1.1.1 universal sketch). EstimateFor(g)
// of the Spec's own G is Estimate; any other g holds only if its envelope
// is within the Options.Envelope the sketch was sized for, so open it
// with the largest envelope of the functions it will be asked for.
type FuncQuerier interface {
	EstimateFor(g gfunc.Func) float64
}

// CoverReporter is the capability of kinds exposing the (g, λ)-heavy
// cover (KindHeavy).
type CoverReporter interface {
	Cover() heavy.Cover
}

// Layered is the capability of kinds that are one recursive stack
// (KindOnePass, KindSharded): the depth Options.Levels resolved to,
// whether the assumption that depth rests on holds right now — the
// deepest level tracking fewer candidates than it can, i.e. all of its
// sub-universe — and the CountSketch rows and buckets heavy.dims resolved
// for every level. Reading either is O(1). CountersDigest digests every
// level's counters and nothing else: two same-seed stacks that ingested
// one multiset agree on it by linearity, whatever their trackers hold.
// ResidentBytes is SpaceBytes as the levels hold it now: a level that has
// seen fewer items than its counter matrix would cost keeps them as a
// table, so it is below the budget until every level is dense (and equal
// after a restore, which is dense).
type Layered interface {
	Depth() (levels, deepestTracked, deepestCapacity int)
	Dims() (rows int, buckets uint64)
	CountersDigest() uint64
	ResidentBytes() int
}

// twoPassEstimator adapts core.TwoPassEstimator: it carries the Spec's
// worker count so Process can run the sharded two-pass protocol.
type twoPassEstimator struct {
	*core.TwoPassEstimator
	workers int
}

// shardedEstimator is the sharded kind: one resident onepass sketch, whose
// every method is that sketch's own, and the Spec's worker count, which
// Process hands to ProcessParallel.
type shardedEstimator struct {
	*core.OnePassEstimator
	workers int
}

// countSketchEstimator adapts sketch.CountSketch: Estimate is the F2
// estimate, EstimateItem (the PointQuerier capability) the per-item
// point query.
type countSketchEstimator struct {
	*sketch.CountSketch
}

func (c *countSketchEstimator) Estimate() float64 { return c.CountSketch.EstimateF2() }

func (c *countSketchEstimator) EstimateItem(item uint64) int64 {
	return c.CountSketch.Estimate(item)
}

// heavyEstimator adapts heavy.OnePass: Estimate is the cover's weight
// sum, Cover (the CoverReporter capability) the full cover.
type heavyEstimator struct {
	*heavy.OnePass
}

func (h *heavyEstimator) Estimate() float64 { return h.Cover().WeightSum() }
