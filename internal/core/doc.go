// Package core implements the paper's primary deliverable: sub-polynomial
// space (1±ε)-approximation of g-SUM = Σ_i g(|v_i|) on turnstile streams.
//
// Three estimators are provided:
//
//   - OnePass: Algorithm 2 + the recursive sketch (Theorem 2's upper
//     bound) — works for slow-jumping, slow-dropping, predictable g;
//   - TwoPass: Algorithm 1 + the recursive sketch (Theorem 3's upper
//     bound) — drops the predictability requirement by tabulating exact
//     frequencies in a second pass;
//   - Exact: the linear-space baseline.
//
// The one-pass estimator is also the function-independent sketch of
// Section 1.1.1: its state does not depend on g, so
// OnePassEstimator.EstimateFor answers post-hoc g-SUM queries for any
// function in a family whose envelopes Options.Envelope covers (used by
// the approximate-MLE application).
//
// Layer: the estimator layer of ARCHITECTURE.md, wrapping
// internal/recursive and internal/heavy below it and feeding the
// harness/service layers (engine, workload, window, daemon) above.
// Seed discipline: all randomness forks from Options.Seed in fixed
// construction order; estimators Merge/UnmarshalBinary only against
// instances built from identical Options including Seed, and the wire
// fingerprint (serialize.go) digests the resolved Options to check it.
package core
