// Package recursive implements the Recursive Sketch of Braverman and
// Ostrovsky ("Generalizing the layering method of Indyk and Woodruff",
// RANDOM 2013), the reduction behind Theorem 13 of the paper: given a
// (g, λ, ε, δ)-heavy-hitter algorithm with λ = ε²/log³n, there is a
// (g, ε)-SUM algorithm with O(log n) storage overhead.
//
// The construction maintains L+1 nested sub-universes
//
//	[n] = U_0 ⊇ U_1 ⊇ ... ⊇ U_L,
//
// where U_{k+1} keeps each item of U_k with probability 1/2 under a fresh
// pairwise-independent hash. A heavy-hitter sketcher runs on each level's
// substream. L is the depth at which a level's candidate tracker holds its
// whole sub-universe — ⌈log2(n/capacity)⌉ + 1, see Depth — not ⌈log2 n⌉:
// below that level every cover is its sub-universe and the recursion adds
// counters, not information. The estimate is assembled bottom-up:
//
//	Ĝ_L = Σ_{i ∈ H_L} w_i
//	Ĝ_k = Σ_{i ∈ H_k} w_i + 2 ( Ĝ_{k+1} − Σ_{i ∈ H_k ∩ U_{k+1}} w_i )
//
// Each level accounts its heavy hitters exactly (to (1±ε)) and estimates
// the light remainder by doubling the next level's estimate of it; because
// every remaining item is light, the doubling has small variance, and
// pairwise independence of the subsampling makes it unbiased.
//
// Layer: the algorithm layer of ARCHITECTURE.md, wrapping one
// internal/heavy instance per subsampling level; internal/core builds
// directly on it.
// Levels: the one-pass stack (Sketch) runs heavy.OnePass (Algorithm 2)
// on every level, the two-pass stack (TwoPass) heavy.TwoPass (Algorithm
// 1); the caller's MakeSketcher builds each level.
// Seed discipline: the level sketchers are built first, level 0 to L (the
// caller's MakeSketcher decides what each draws), then the subsampling
// hashes fork from the stack's own generator, one per level — so a stack
// of depth L is a prefix of the stack of any greater depth from the same
// seeds. Levels 1…L then adopt level 0's CountSketch row hashes: one
// family per stack, hashed once per batch.
// Merge/UnmarshalBinary require same-seed instances and the composite
// wire fingerprint folds every level's fingerprint.
package recursive
