package core

import (
	"math"

	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/recursive"
	"repro/internal/stream"
	"repro/internal/util"
)

// Options configures the estimators. The zero value is not usable; fill in
// at least N and M. Accuracy defaults: Eps 0.25, Delta 0.2. The JSON tags
// define the canonical encoding used inside backend Specs.
type Options struct {
	// N is the stream's domain size.
	N uint64 `json:"n"`
	// M bounds |v_i| (the turnstile promise). It determines the envelope
	// H(M) used to size the sketches.
	M int64 `json:"m"`
	// Eps is the target relative accuracy ε (default 0.25).
	Eps float64 `json:"eps"`
	// Delta is the per-estimator failure probability δ (default 0.2). It
	// sets the CountSketch rows of every level and nothing else:
	// ⌈2 ln(2/δ)⌉ made odd in one pass (Algorithm 2 gives its sketch δ/2:
	// 5 rows at 0.2, 7 at 0.1, 11 at 0.01), ⌈2 ln(1/δ)⌉ in two, at least 5
	// (heavy.dims). Measured at the default, ε 0.25, λ 1/16: 0 of 4000
	// estimates outside εG over ten generators × ten functions × 40 seeds,
	// a failure rate under 0.1% at 95% confidence where δ allows 20%; the
	// rows below 5 that would spend that slack lose flat streams from
	// N = 2^20 up (EXPERIMENTS.md, "Spending the ledger, round 4").
	Delta float64 `json:"delta"`
	// Lambda is the heaviness parameter λ; 0 means the Theorem 13 setting
	// ε² / log³n (floored at DefaultLambdaFloor = 1/32 to keep test-scale
	// widths finite).
	Lambda float64 `json:"lambda"`
	// Levels is the recursive sketch's number of subsampling levels
	// (0 = depth from capacity: the recursion stops at the level whose
	// sub-universe the candidate tracker holds outright, see
	// recursive.Depth; at most 30). The constructors resolve 0, so an
	// estimator built with 0 and one built with the depth 0 resolves to
	// are the same sketch, fingerprint included.
	Levels int `json:"levels"`
	// WidthFactor scales sketch widths for space/accuracy sweeps (0 = 1).
	WidthFactor float64 `json:"width_factor"`
	// Seed makes every random choice reproducible.
	Seed uint64 `json:"seed"`
	// Envelope overrides the measured H(M) (0 = measure from g).
	Envelope float64 `json:"envelope"`
}

// DefaultLambdaFloor is the smallest λ WithDefaults will derive from the
// Theorem 13 formula. The asymptotic setting ε²/log³n would drive sketch
// widths far past what the accuracy needs at laptop scales, so the
// default is floored here. Experiments that sweep λ set it explicitly.
const DefaultLambdaFloor = 1.0 / 32

// WithDefaults resolves the zero-value accuracy fields to the documented
// defaults: Eps 0.25, Delta 0.2, Lambda per Theorem 13 floored at
// DefaultLambdaFloor, WidthFactor 1. Estimator constructors apply it;
// the backend registry applies it when normalizing a Spec, so both
// resolve a partially-filled Options to the same configuration.
func (o Options) WithDefaults() Options {
	if o.Eps == 0 {
		o.Eps = 0.25
	}
	if o.Delta == 0 {
		o.Delta = 0.2
	}
	if o.Lambda == 0 {
		logn := math.Log2(float64(o.N) + 2)
		o.Lambda = o.Eps * o.Eps / (logn * logn * logn)
		if o.Lambda < DefaultLambdaFloor {
			o.Lambda = DefaultLambdaFloor
		}
	}
	if o.WidthFactor == 0 {
		o.WidthFactor = 1
	}
	return o
}

// EnvelopeFor resolves the envelope H(M) for g under the options — the
// exact defaulting the estimator constructors apply (Envelope override,
// M clamp, cap for functions with no finite envelope). Exported so
// layers that pre-pin the envelope into shared Options (internal/window
// builds many estimators that must resolve to byte-identical
// configuration) cannot drift from the constructors' policy.
func EnvelopeFor(g gfunc.Func, o Options) float64 {
	if o.Envelope > 0 {
		return o.Envelope
	}
	m := uint64(o.M)
	if m < 4 {
		m = 4
	}
	h := gfunc.MeasureEnvelope(g, m).H()
	if math.IsInf(h, 0) || math.IsNaN(h) {
		// No finite sub-polynomial envelope at this scale (e.g. 2^x):
		// cap it so construction still succeeds; accuracy will be poor,
		// which is the observable consequence of intractability.
		h = float64(m)
	}
	return h
}

// OnePassEstimator approximates g-SUM in a single pass.
type OnePassEstimator struct {
	g    gfunc.Func
	sk   *recursive.Sketch
	opts Options // resolved options, digested by Fingerprint
}

// NewOnePass builds the Theorem 2 estimator for g.
func NewOnePass(g gfunc.Func, opts Options) *OnePassEstimator {
	o := opts.WithDefaults()
	h := EnvelopeFor(g, o)
	o.Envelope = h // shard clones reuse the measured envelope instead of re-scanning g
	rng := util.NewSplitMix64(o.Seed)
	hhRng := rng.Fork()
	sk := recursive.New(recursive.Config{
		N:      o.N,
		Levels: o.Levels,
		MakeSketcher: func(level int) heavy.Sketcher {
			return heavy.NewOnePass(heavy.OnePassConfig{
				G:           g,
				Lambda:      o.Lambda,
				Eps:         o.Eps,
				Delta:       o.Delta,
				H:           h,
				WidthFactor: o.WidthFactor,
			}, hhRng.Fork())
		},
	}, rng.Fork())
	o.Levels = sk.Levels() // Levels 0 and the depth it resolves to are one sketch
	return &OnePassEstimator{g: g, sk: sk, opts: o}
}

// Update feeds one turnstile update.
func (e *OnePassEstimator) Update(item uint64, delta int64) {
	e.sk.Update(item, delta)
}

// UpdateBatch feeds a batch of turnstile updates through the recursive
// sketch's batch path (duplicate aggregation + per-level routing).
func (e *OnePassEstimator) UpdateBatch(batch []stream.Update) {
	e.sk.UpdateBatch(batch)
}

// Process consumes an entire stream through the batched ingestion path.
func (e *OnePassEstimator) Process(s *stream.Stream) {
	stream.Batches(s.Updates(), e.sk.UpdateBatch)
}

// Estimate returns the g-SUM estimate. Call once, after the stream.
func (e *OnePassEstimator) Estimate() float64 { return e.sk.Estimate() }

// EstimateFor returns the g-SUM estimate for any g, read from the same
// state (the §1.1.1 universal sketch; recursive.Sketch.EstimateFor). It
// holds for a g whose envelope is within the one the sketch was sized for:
// set Options.Envelope to the largest over the functions to be asked.
func (e *OnePassEstimator) EstimateFor(g gfunc.Func) float64 { return e.sk.EstimateFor(g) }

// SpaceBytes reports total counter storage: the budget every level is
// sized for.
func (e *OnePassEstimator) SpaceBytes() int { return e.sk.SpaceBytes() }

// ResidentBytes reports the counter storage the levels hold now, at most
// about SpaceBytes (recursive.Sketch.ResidentBytes).
func (e *OnePassEstimator) ResidentBytes() int { return e.sk.ResidentBytes() }

// Depth reports the stack's resolved number of subsampling levels and how
// full the deepest level's candidate tracker is: tracked below capacity
// means that level holds its whole sub-universe, the condition the depth
// was chosen for (recursive.Depth). O(1).
func (e *OnePassEstimator) Depth() (levels, deepestTracked, deepestCapacity int) {
	deepestTracked, deepestCapacity = e.sk.Deepest()
	return e.sk.Levels(), deepestTracked, deepestCapacity
}

// Dims reports the CountSketch rows and buckets heavy.dims resolved for
// every level of the stack.
func (e *OnePassEstimator) Dims() (rows int, buckets uint64) { return e.sk.Dims() }

// CountersDigest digests the stack's counters alone
// (recursive.Sketch.CountersDigest).
func (e *OnePassEstimator) CountersDigest() uint64 { return e.sk.CountersDigest() }

// TwoPassEstimator approximates g-SUM with two passes over the stream.
type TwoPassEstimator struct {
	g     gfunc.Func
	sk    *recursive.TwoPass
	opts  Options // resolved options, kept so RunParallel can clone shards
	pass2 bool    // set by FinishPass1: Update/UpdateBatch feed pass 2
}

// NewTwoPass builds the Theorem 3 estimator for g.
func NewTwoPass(g gfunc.Func, opts Options) *TwoPassEstimator {
	o := opts.WithDefaults()
	h := EnvelopeFor(g, o)
	o.Envelope = h // shard clones reuse the measured envelope instead of re-scanning g
	rng := util.NewSplitMix64(o.Seed)
	hhRng := rng.Fork()
	sk := recursive.NewTwoPass(recursive.TwoPassConfig{
		N:      o.N,
		Levels: o.Levels,
		MakeSketcher: func(level int) *heavy.TwoPass {
			return heavy.NewTwoPass(heavy.TwoPassConfig{
				G:           g,
				Lambda:      o.Lambda,
				Delta:       o.Delta,
				H:           h,
				WidthFactor: o.WidthFactor,
			}, hhRng.Fork())
		},
	}, rng.Fork())
	o.Levels = sk.Levels() // Levels 0 and the depth it resolves to are one sketch
	return &TwoPassEstimator{g: g, sk: sk, opts: o}
}

// Run executes both passes over a replayable stream (through the batched
// ingestion path) and returns the estimate.
func (e *TwoPassEstimator) Run(s *stream.Stream) float64 {
	stream.Batches(s.Updates(), e.sk.Pass1Batch)
	e.FinishPass1()
	stream.Batches(s.Updates(), e.sk.Pass2Batch)
	return e.sk.Estimate()
}

// Update feeds one turnstile update to the current pass: the
// identification pass before FinishPass1, the tabulation pass after.
// This is the unified-Estimator face of the two-pass protocol; callers
// replay the stream, call FinishPass1, and replay it again.
func (e *TwoPassEstimator) Update(item uint64, delta int64) {
	if e.pass2 {
		e.sk.Pass2(item, delta)
	} else {
		e.sk.Pass1(item, delta)
	}
}

// UpdateBatch feeds a batch of turnstile updates to the current pass.
func (e *TwoPassEstimator) UpdateBatch(batch []stream.Update) {
	if e.pass2 {
		e.sk.Pass2Batch(batch)
	} else {
		e.sk.Pass1Batch(batch)
	}
}

// FinishPass1 switches to the tabulation pass.
func (e *TwoPassEstimator) FinishPass1() {
	e.sk.FinishPass1()
	e.pass2 = true
}

// Estimate returns the g-SUM estimate after both passes.
func (e *TwoPassEstimator) Estimate() float64 { return e.sk.Estimate() }

// SpaceBytes reports total counter storage.
func (e *TwoPassEstimator) SpaceBytes() int { return e.sk.SpaceBytes() }

// ExactEstimator is the linear-space baseline: it stores the frequency
// vector and evaluates g-SUM exactly.
type ExactEstimator struct {
	g    gfunc.Func
	freq map[uint64]int64
}

// NewExact returns the exact baseline for g.
func NewExact(g gfunc.Func) *ExactEstimator {
	return &ExactEstimator{g: g, freq: make(map[uint64]int64)}
}

// Update feeds one turnstile update.
func (e *ExactEstimator) Update(item uint64, delta int64) {
	nv := e.freq[item] + delta
	if nv == 0 {
		delete(e.freq, item)
	} else {
		e.freq[item] = nv
	}
}

// UpdateBatch feeds a batch of turnstile updates.
func (e *ExactEstimator) UpdateBatch(batch []stream.Update) {
	for _, u := range batch {
		e.Update(u.Item, u.Delta)
	}
}

// Process consumes an entire stream.
func (e *ExactEstimator) Process(s *stream.Stream) {
	s.Each(func(u stream.Update) { e.Update(u.Item, u.Delta) })
}

// Estimate returns the exact g-SUM.
func (e *ExactEstimator) Estimate() float64 {
	return heavy.GSumExact(e.g, e.freq)
}

// SpaceBytes reports the (linear) storage.
func (e *ExactEstimator) SpaceBytes() int { return len(e.freq) * 16 }
