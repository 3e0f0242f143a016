// Package window is the sliding-window estimation layer: panes of ticks,
// each pane one one-pass g-SUM estimator, answering queries over the last
// W ticks of a stream instead of the whole of it.
//
// # Role
//
// The rest of the repository estimates g-SUM since process start. A
// production aggregation service is usually asked about *recent*
// traffic — "top contributors in the last hour" — so this package
// panes the paper's one-pass sketch (core.OnePassEstimator: Theorem 2
// inside the recursive sketch), whose only property the window needs is
// that it is linear and mergeable. Window is the backend's "window"
// kind itself: Advance(tick) moves the clock, Update and UpdateBatch
// feed the pane holding the current tick, and Estimate/EstimateFor
// answer over the trailing W-tick window.
//
// # How it works
//
// Ticks are cut into aligned panes (Li et al., "No pane, no gain", 2005)
// of width s = MaxSpan(cfg), the smallest power of two at least ⌈W/K⌉:
// pane j holds every update whose tick fell in [j·s, (j+1)·s). The live
// panes run from the one holding now−W+1 (tick 0 while the window still
// covers the whole history) to the one holding now, at most K+1 of them.
// Advance drops the panes that end at or before now−W and opens empty
// ones up to the clock, so it costs at most K+1 pane slots whatever the
// jump or W. A pane builds its estimator on its first update, so idle
// ticks and empty panes allocate nothing. An estimate merges the live
// panes, oldest first, into one fresh estimator.
//
// Because the sketch is linear, a pane of whole ticks is all a window
// needs; an exponential histogram (Datar–Gionis–Indyk–Motwani) earns its
// log factor only where a bucket's size depends on the data. The live
// panes are a pure function of (W, K, current clock) — never of the data
// or of how Advance was called — so two windows at the same clock merge
// pane by pane with the exact linearity guarantees of the underlying
// sketch. Serial, cut-and-merged, and daemon-merged windowed runs
// therefore produce bit-identical counter state, the same contract Merge
// provides for whole-stream sketches.
//
// # Accuracy caveat
//
// A whole-stream linear sketch forgets nothing; a window must forget,
// and it forgets at pane granularity. The oldest live pane may straddle
// the window boundary, so up to StaleBound() = s−1 ticks older than the
// window (fewer than 2⌈W/K⌉) can still contribute to an estimate. Items
// whose ticks are at least W+StaleBound() behind the clock are
// guaranteed gone. Raising K tightens the bound at the cost of more
// panes.
//
// # Layer
//
// In ARCHITECTURE.md's layer map, window sits with the harness layer:
// above the estimators (internal/core) it panes, below the service
// surface (internal/daemon's "window" backend and /v1/advance) and the
// bench runner (internal/workload's windowed mode).
//
// # Seed discipline
//
// Every pane, and every staging pane a snapshot decodes into, is
// core.NewOnePass of the same g and options, whose envelope New pins
// once — panes merge with each other, so one drift in their
// configuration would silently break linearity. The wire format
// (serialize.go) digests W, K, and the pane's own fingerprint into the
// header, and Merge compares the same fingerprint before any pane
// mutates, making the contract a checked invariant exactly as
// internal/wire does for the underlying sketches.
package window
