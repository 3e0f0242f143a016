// Package heavy implements the paper's heavy-hitter layer:
//
//   - Definition 11/12: (g, λ)-heavy hitters and (g, λ, ε)-covers;
//   - Algorithm 1: the 2-pass (g, λ, 0, δ)-heavy-hitter algorithm
//     (CountSketch pass to identify candidates, exact tabulation pass);
//   - Algorithm 2: the 1-pass (g, λ, ε, δ)-heavy-hitter algorithm
//     (CountSketch + AMS F2, then the predictability pruning step);
//   - the dedicated 1-pass algorithm for the nearly periodic function g_np
//     from Appendix D.1;
//   - an exact baseline for ground truth in tests and experiments.
//
// Sizing: dims turns (λ, ε, δ, H) into rows, buckets and tracked candidates
// for both algorithms — the analysis' forms, constants measured by the
// sizing frontier (frontier_test.go; EXPERIMENTS.md "Spending the ledger,
// round 4"). Moving one moves what every Spec opens: a wire.Version bump.
//
// Layer: the algorithm layer of ARCHITECTURE.md, between the raw
// sketches and the recursive sketch.
// Seed discipline: all hash state forks from the constructor rng in
// fixed order; Merge/UnmarshalBinary require identically-configured,
// same-seed instances, checked on the wire by fingerprints. Candidate
// trackers merge best-effort but deterministically (see ARCHITECTURE.md's
// merge contract).
package heavy
