// Package metrics is a small, dependency-free instrumentation registry
// with a Prometheus text-format encoder: counters (monotone uint64),
// gauges (float64, settable or computed on scrape via GaugeFunc), and
// histograms (fixed upper bounds, cumulative bucket counts plus sum and
// count). A Registry serves its families directly as an http.Handler in
// the text exposition format (version 0.0.4), so `GET /metrics` on a
// daemon is one mux line; Parse reads the same format back into a
// Scrape, which is how the daemon's soak and observability tests assert
// invariants from the daemon's own scrape output rather than from
// internal state.
//
// All instruments are lock-free on the hot path (atomics only; a
// histogram Observe is one atomic add per bucket boundary crossed plus
// a CAS loop for the sum), so ingest-path instrumentation stays within
// benchmark noise of the uninstrumented code — the repository
// benchmark's daemon.apply rung (bench/) measures this. Registration is not hot-path:
// instruments are created once at construction time, and registering
// the same name with an identical label set twice panics (a programmer
// error caught at boot, not a silent metric merge).
//
// Layer: infrastructure, below internal/daemon; nothing here knows
// about sketches. Seed discipline does not apply — metrics are
// observational and never feed back into estimates.
package metrics
