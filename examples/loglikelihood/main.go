// Loglikelihood: the Section 1.1.1 application. Stream coordinates are
// i.i.d. samples from an unknown discrete distribution; the negative
// log-likelihood ℓ(θ) = -Σ_i log p(v_i; θ) is a g-SUM for the generally
// non-monotonic g_θ(x) = -log p(x; θ). The one-pass sketch does not
// depend on g: sized for the grid's largest envelope, one sketch answers
// ℓ(θ) for a whole grid of θ after a single pass (EstimateFor), yielding
// a streaming approximate maximum-likelihood estimate.
//
//	go run ./examples/loglikelihood
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/mle"
	"repro/internal/stream"
	"repro/internal/util"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loglikelihood:", err)
		os.Exit(1)
	}
}

// run holds the example body; it writes to w so the smoke tests can
// assert on the output.
func run(w io.Writer) error {
	const (
		n    = 1 << 11
		maxX = 32
		seed = 19
	)

	// Ground truth: a Poisson mixture — the paper's own example of a
	// distribution whose -log p is non-monotonic.
	truth := mle.PoissonMixture{Lambda: 0.7, Alpha: 0.25, Beta: 6, Max: maxX}
	fmt.Fprintf(w, "sampling %d coordinates from %s\n", n, truth.Name())

	s := stream.IIDSamples(stream.GenConfig{N: n, M: maxX, Seed: seed},
		func(rng *util.SplitMix64) int64 { return int64(truth.Sample(rng)) })

	// Parameter grid Θ: sweep the second component's mean β.
	betas := []float64{2, 3, 4, 5, 6, 7, 8, 10}
	models := make([]*mle.Model, 0, len(betas))
	for _, b := range betas {
		m, err := mle.NewModel(mle.PoissonMixture{Lambda: 0.7, Alpha: 0.25, Beta: b, Max: maxX})
		if err != nil {
			return err
		}
		models = append(models, m)
	}

	est := mle.NewEstimator(models, core.Options{
		N: n, M: maxX, Eps: 0.2, Seed: seed, Lambda: 1.0 / 8, WidthFactor: 0.5,
	}, 3)
	est.Process(s)

	lls := est.LogLikelihoods()
	v := s.Vector()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "  β      ℓ̂(θ) sketch    ℓ(θ) exact    rel err")
	bestIdx, bestLL := 0, math.Inf(1)
	for i, m := range models {
		exact := m.ExactLogLikelihood(v, n)
		if exact < bestLL {
			bestIdx, bestLL = i, exact
		}
		fmt.Fprintf(w, "  %-5g  %12.2f  %12.2f    %.4f\n",
			betas[i], lls[i], exact, util.RelErr(lls[i], exact))
	}
	idx, _ := est.ArgMin()
	fmt.Fprintln(w)
	fmt.Fprintf(w, "approximate MLE: β̂ = %g (exact grid minimizer: β* = %g)\n",
		betas[idx], betas[bestIdx])
	fmt.Fprintf(w, "guarantee: ℓ(β̂) <= (1+ε) ℓ(β*): %.2f <= %.2f\n",
		models[idx].ExactLogLikelihood(v, n), 1.2*bestLL)
	fmt.Fprintf(w, "sketch space: %d B for %d queries from one pass\n",
		est.SpaceBytes(), len(betas))
	return nil
}
