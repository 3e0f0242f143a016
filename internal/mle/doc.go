// Package mle implements the Section 1.1.1 application: streaming
// log-likelihood approximation and approximate maximum-likelihood
// estimation for discrete distributions.
//
// The stream's coordinates v_1..v_n are i.i.d. samples from a discrete
// distribution p(·; θ). The log-likelihood ℓ(θ; v) = -Σ_i log p(v_i; θ)
// is a g-SUM for g_θ(x) = -log p(x; θ), which is generally non-monotonic
// (e.g. Poisson mixtures) — exactly the class this paper newly handles.
//
// Because the paper's sketch is linear and independent of g, a single
// one-pass sketch, sized for the worst envelope of the grid, answers ℓ(θ)
// for every θ in a discretized parameter grid post hoc (EstimateFor);
// amplifying by O(log |Θ|) independent copies makes all answers
// simultaneously correct, and θ̂ = argmin_θ ℓ̂(θ) then satisfies
// ℓ(θ̂) <= (1+ε) min_θ ℓ(θ).
//
// Layer: satellite off the spine in ARCHITECTURE.md — the §1.1.1
// approximate-MLE application on top of core.OnePassEstimator.
// Seed discipline: inherits core's rules; it owns no sketch state of
// its own.
package mle
