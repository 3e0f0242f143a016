package mle

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

// Dist is a discrete probability distribution on Z≥0.
type Dist interface {
	Name() string
	// PMF returns p(x). Implementations must have p(x) > 0 for all x in
	// the supported range [0, MaxX].
	PMF(x uint64) float64
	// MaxX is the largest value the model supports; samples are truncated
	// to it (the paper's M ∈ poly(n) restriction).
	MaxX() uint64
	// Sample draws one value.
	Sample(rng *util.SplitMix64) uint64
}

// Poisson is the Poisson(alpha) distribution truncated at maxX.
type Poisson struct {
	Alpha float64
	Max   uint64
}

// Name implements Dist.
func (p Poisson) Name() string { return fmt.Sprintf("Poisson(%.3g)", p.Alpha) }

// PMF implements Dist.
func (p Poisson) PMF(x uint64) float64 {
	// log pmf = x log α - α - log x!
	lg := float64(x)*math.Log(p.Alpha) - p.Alpha - lgamma(float64(x)+1)
	return math.Exp(lg)
}

// MaxX implements Dist.
func (p Poisson) MaxX() uint64 { return p.Max }

// Sample implements Dist (inversion on the CDF; fine for laptop-scale α).
func (p Poisson) Sample(rng *util.SplitMix64) uint64 {
	return sampleByInversion(p, rng)
}

// PoissonMixture is λ·Poisson(alpha) + (1-λ)·Poisson(beta), the paper's
// example of a distribution whose negative log-PMF is non-monotonic.
type PoissonMixture struct {
	Lambda      float64
	Alpha, Beta float64
	Max         uint64
}

// Name implements Dist.
func (p PoissonMixture) Name() string {
	return fmt.Sprintf("PoisMix(λ=%.2f,α=%.3g,β=%.3g)", p.Lambda, p.Alpha, p.Beta)
}

// PMF implements Dist.
func (p PoissonMixture) PMF(x uint64) float64 {
	a := Poisson{Alpha: p.Alpha, Max: p.Max}
	b := Poisson{Alpha: p.Beta, Max: p.Max}
	return p.Lambda*a.PMF(x) + (1-p.Lambda)*b.PMF(x)
}

// MaxX implements Dist.
func (p PoissonMixture) MaxX() uint64 { return p.Max }

// Sample implements Dist.
func (p PoissonMixture) Sample(rng *util.SplitMix64) uint64 {
	return sampleByInversion(p, rng)
}

// Geometric is the Geometric(q) distribution on {0, 1, ...} truncated at
// maxX: p(x) = (1-q)^x q.
type Geometric struct {
	Q   float64
	Max uint64
}

// Name implements Dist.
func (g Geometric) Name() string { return fmt.Sprintf("Geometric(%.3g)", g.Q) }

// PMF implements Dist.
func (g Geometric) PMF(x uint64) float64 {
	return math.Pow(1-g.Q, float64(x)) * g.Q
}

// MaxX implements Dist.
func (g Geometric) MaxX() uint64 { return g.Max }

// Sample implements Dist.
func (g Geometric) Sample(rng *util.SplitMix64) uint64 {
	return sampleByInversion(g, rng)
}

func sampleByInversion(d Dist, rng *util.SplitMix64) uint64 {
	u := rng.Float64()
	var cum float64
	for x := uint64(0); x <= d.MaxX(); x++ {
		cum += d.PMF(x)
		if u < cum {
			return x
		}
	}
	return d.MaxX()
}

// lgamma returns ln Γ(x) discarding the sign (x > 0 here).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Model packages a distribution with its g-SUM representation. The class-G
// normalization forces g(0) = 0 and g(1) = 1, so the raw negative
// log-likelihood is recovered affinely:
//
//	ℓ(θ; v) = n·(-log p(0)) + Scale · Σ_i g(|v_i|),
//
// where g(x) = (-log p(x) + log p(0)) / Scale and
// Scale = -log p(1) + log p(0). Validity requires p(0) > p(x) for x >= 1
// (checked at construction), which holds for the mixtures used here.
type Model struct {
	Dist  Dist
	G     gfunc.Func
	Base  float64 // -log p(0), the per-coordinate offset
	Scale float64 // -log p(1) + log p(0)
}

// NewModel builds the g-SUM representation of dist. It returns an error if
// the distribution's PMF does not peak at 0 (the affine reduction to class
// G then fails; see Appendix A of the paper for the g(0) ≠ 0 treatment).
func NewModel(dist Dist) (*Model, error) {
	p0 := dist.PMF(0)
	if !(p0 > 0) {
		return nil, fmt.Errorf("mle: %s has p(0) = %v", dist.Name(), p0)
	}
	for x := uint64(1); x <= dist.MaxX(); x++ {
		px := dist.PMF(x)
		if !(px > 0) {
			return nil, fmt.Errorf("mle: %s has p(%d) = %v", dist.Name(), x, px)
		}
		if px >= p0 {
			return nil, fmt.Errorf("mle: %s has p(%d) = %.4g >= p(0) = %.4g; class-G reduction needs the mode at 0",
				dist.Name(), x, px, p0)
		}
	}
	base := -math.Log(p0)
	scale := -math.Log(dist.PMF(1)) - base
	g := gfunc.New("-log "+dist.Name(), func(x uint64) float64 {
		if x == 0 {
			return 0
		}
		if x > dist.MaxX() {
			x = dist.MaxX()
		}
		return (-math.Log(dist.PMF(x)) - base) / scale
	})
	return &Model{Dist: dist, G: g, Base: base, Scale: scale}, nil
}

// LogLikelihoodFromGSum converts a g-SUM value over an n-coordinate vector
// into the negative log-likelihood ℓ(θ; v).
func (m *Model) LogLikelihoodFromGSum(gsum float64, n uint64) float64 {
	return float64(n)*m.Base + m.Scale*gsum
}

// ExactLogLikelihood computes ℓ(θ; v) directly from a frequency vector.
func (m *Model) ExactLogLikelihood(v stream.Vector, n uint64) float64 {
	return m.LogLikelihoodFromGSum(v.Sum(m.G.Eval), n)
}

// Estimator performs streaming approximate MLE over a model grid Θ using
// R independent universal sketches — one-pass sketches queried post hoc
// with every g_θ (R = O(log |Θ|) drives the failure probability below
// 1/|Θ|, so all grid answers hold simultaneously).
type Estimator struct {
	models []*Model
	n      uint64
	runs   []*core.OnePassEstimator
}

// NewEstimator builds the MLE estimator. opts.N must be the number of
// coordinates n; the sketches are sized by the worst envelope across the
// grid.
func NewEstimator(models []*Model, opts core.Options, copies int) *Estimator {
	if len(models) == 0 {
		panic("mle: empty model grid")
	}
	if copies < 1 {
		copies = 1 + util.Log2Ceil(uint64(len(models)))
	}
	if copies%2 == 0 {
		copies++
	}
	if opts.Envelope == 0 {
		m := uint64(opts.M)
		if m < 4 {
			m = 4
		}
		for _, mod := range models {
			if h := gfunc.MeasureEnvelope(mod.G, m).H(); h > opts.Envelope {
				opts.Envelope = h
			}
		}
	}
	rng := util.NewSplitMix64(opts.Seed)
	runs := make([]*core.OnePassEstimator, copies)
	for i := range runs {
		oi := opts
		oi.Seed = rng.Next()
		runs[i] = core.NewOnePass(models[0].G, oi)
	}
	return &Estimator{models: models, n: opts.N, runs: runs}
}

// Update feeds one turnstile update to every sketch copy.
func (e *Estimator) Update(item uint64, delta int64) {
	for _, r := range e.runs {
		r.Update(item, delta)
	}
}

// Process consumes an entire stream.
func (e *Estimator) Process(s *stream.Stream) {
	s.Each(func(u stream.Update) { e.Update(u.Item, u.Delta) })
}

// LogLikelihoods returns the estimated ℓ(θ) for every model in the grid
// (median across sketch copies).
func (e *Estimator) LogLikelihoods() []float64 {
	out := make([]float64, len(e.models))
	ests := make([]float64, len(e.runs))
	for mi, m := range e.models {
		for ri, r := range e.runs {
			ests[ri] = m.LogLikelihoodFromGSum(r.EstimateFor(m.G), e.n)
		}
		out[mi] = util.MedianFloat64(ests)
	}
	return out
}

// ArgMin returns the grid index minimizing the estimated ℓ and the
// estimate itself: the approximate MLE θ̂.
func (e *Estimator) ArgMin() (int, float64) {
	lls := e.LogLikelihoods()
	best, bestV := 0, lls[0]
	for i, v := range lls {
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// SpaceBytes reports total sketch storage across copies.
func (e *Estimator) SpaceBytes() int {
	total := 0
	for _, r := range e.runs {
		total += r.SpaceBytes()
	}
	return total
}
