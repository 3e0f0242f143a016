// Package window is the sliding-window estimation layer: an exponential
// histogram of buckets, each bucket one mergeable sketch, answering
// queries over the last W ticks of a stream instead of the whole of it.
//
// # Role
//
// The rest of the repository estimates g-SUM since process start. A
// production aggregation service is usually asked about *recent*
// traffic — "top contributors in the last hour" — so this package wraps
// any seed-disciplined mergeable sketch (sketch.CountSketch,
// heavy.OnePass, the core estimators, …) in a Window: Update(item,
// delta, tick) feeds time-stamped traffic, Advance(tick) moves the
// clock, and Merged/Estimate answer over the trailing W-tick window.
//
// # How it works
//
// The window keeps its buckets in the exponential-histogram shape of
// Datar–Gionis–Indyk–Motwani, transplanted from counts to ticks: every
// bucket covers a power-of-two span of consecutive ticks, the newest
// bucket is always the open span-1 bucket at the current tick, and when
// more than K buckets share a span the two oldest of that span merge
// (via the sketches' Merge contract) into one bucket of twice the span.
// Buckets whose entire span has fallen out of the window are dropped.
// Bucket lifecycle: fill (open, absorbing updates) → seal (Advance
// moves past it) → merge (compaction pairs it with its neighbor) →
// expire (entirely outside the window).
//
// Crucially the bucket structure is a pure function of (W, K, current
// clock) — it never depends on the data, and every window visits every
// tick exactly once however Advance is called — so two windows at the
// same clock have identical bucket boundaries and merge
// bucket-by-bucket with the exact linearity guarantees of the
// underlying sketches. Serial, cut-and-merged, and daemon-merged
// windowed runs therefore produce bit-identical counter state, the same
// contract Merge provides for whole-stream sketches. Buckets
// materialize lazily and clock jumps that expire everything
// fast-forward in O(W) instead of replaying each tick, so idle periods
// and wall-clock-sized tick domains cost (almost) nothing.
//
// # Accuracy caveat
//
// A whole-stream linear sketch forgets nothing; a window must forget,
// and it forgets at bucket granularity. The oldest surviving bucket may
// straddle the window boundary, so up to StaleBound() = MaxSpan(cfg)−1
// ticks older than the window (fewer than 2⌈W/K⌉) can still contribute
// to an estimate. Items whose ticks are at least W+StaleBound() behind
// the clock are guaranteed gone. Raising K tightens the bound at the
// cost of more buckets; total bucket count stays O(K·log(W/K) + K).
//
// # Layer
//
// In ARCHITECTURE.md's layer map, window sits with the harness layer:
// above the estimators (internal/core) and sketches it buckets, below
// the service surface (internal/daemon's "window" backend and
// /v1/advance) and the bench runner (internal/workload's windowed
// mode).
//
// # Seed discipline
//
// The factory passed to New must return identically-configured,
// same-seed sketches on every call — buckets merge with each other, and
// snapshots decode against freshly built staging sketches, so one drift
// in the factory would silently break linearity. The wire format
// (serialize.go) digests W, K, and the bucket sketch's own fingerprint
// into the header, making the contract a checked invariant exactly as
// internal/wire does for the underlying sketches.
package window
