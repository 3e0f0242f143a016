// Package gfunc implements the function class G of the paper,
//
//	G = { g : Z≥0 → R,  g(0) = 0,  g(1) = 1,  g(x) > 0 for x > 0 },
//
// together with the three structural properties that drive the zero-one
// laws — slow-jumping (Definition 6), slow-dropping (Definition 7), and
// predictable (Definition 8) — the nearly periodic class (Definition 9),
// and the classifier implementing Theorems 2 and 3.
//
// The paper's definitions are asymptotic (they quantify over a threshold
// N → ∞). The checkers here are witness searchers over a finite range
// [1, M] combined with a two-scale trend test: a violation exponent that
// persists at the top scale marks the property as failing, one that decays
// toward zero as the scale grows marks it as holding. That is the
// substitution for the asymptotic quantifier (E1 and E12 in
// EXPERIMENTS.md run it on the paper's examples); every verdict carries
// the witness that produced it so lower-bound harnesses can replay it.
//
// Layer: satellite of the spine in ARCHITECTURE.md: the function class
// G, its zero-one-law property checkers, and envelope measurement,
// consumed by every layer from heavy up to the daemon.
// Seed discipline: classification uses deterministic witness searches;
// envelope measurement is a pure function of (g, M). Catalog functions
// are identified by Name() on the wire, so renaming one is a wire
// format change.
package gfunc
