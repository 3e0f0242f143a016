// Package workload is the scenario-generation subsystem: a catalog of
// deterministic, seeded stream generators with very different
// heavy-hitter structure, so that accuracy and throughput claims can be
// exercised across the traffic shapes a production aggregation service
// actually sees — not just the uniform synthetic stream the early
// benchmarks used.
//
// Every generator implements Generator: a pure function from Config
// (domain, working-set cardinality, stream length, seed) to a
// stream.Stream. Determinism is total — the same Config yields a
// byte-identical stream on every run, every platform, and independent of
// how the stream is later sharded — so workload streams plug directly
// into the repository's exact-equality contracts (serial == sharded ==
// daemon-merged; see internal/core/merge.go).
//
// The catalog (see Generators):
//
//	zipf      Zipfian / power-law item popularity (α = 1.1): the
//	          canonical heavy-tailed workload g-SUM algorithms target.
//	uniform   every working-set item equally likely: no heavy hitters,
//	          the degenerate case heavy-hitter layers must not distort.
//	needle    needle-in-a-haystack: one dominant key carries half the
//	          stream over a uniform haystack — max-skew heavy-hitter
//	          recall, and the shape of a hot-key cache stampede.
//	bursty    clustered arrival order: items arrive in runs (geometric
//	          lengths), the fast path for run-length batch collapse and
//	          the worst case for per-update candidate tracking.
//	permuted  a Zipf stream replayed in a seeded random permutation:
//	          identical frequency vector to zipf with all arrival
//	          locality destroyed — linear sketches must produce the
//	          same estimates; order-sensitive optimizations must not
//	          change results.
//	drift     concept drift: the Zipf working set rotates through fresh
//	          items mid-stream, so trackers that filled on the old
//	          regime must survive the new one.
//	adversarial  anti-sketch stream: decoy items mined offline to
//	          collide with a victim item in the seeded CountSketch hash
//	          family — the attacker knows the seed. Whole-stream g-SUM
//	          estimates survive; point queries on the victim degrade
//	          (demonstrated in EXPERIMENTS.md's sweep report).
//	flashcrowd  a cold item goes vertical partway through an otherwise
//	          Zipf stream: sudden heavy-hitter emergence.
//	diurnal   Zipf popularity under a day-shaped per-tick volume curve
//	          (trough to peak and back): the flat-stream vector matches
//	          zipf exactly — the tick axis is the point, stressing
//	          windowed estimators whose budgets are fixed per pane.
//	trace     CSV replay: item,delta lines from a user-supplied file
//	          (or a seeded synthetic trace when no path is given)
//	          through the same harness as every synthetic scenario.
//
// The package also hosts the bench runner (bench.go) behind the
// `gsum bench` subcommand, which drives any generator through the
// serial, sharded, or daemon (HTTP worker/coordinator)
// ingestion paths and reports throughput and estimate-vs-exact error.
// internal/sweep builds on both, running the full workload x backend x
// eps x workers matrix across worker processes (`gsum sweep`).
//
// Layer: harness layer in ARCHITECTURE.md, upstream of the serial,
// sharded, and daemon ingestion paths (and, in windowed mode, of
// internal/window behind serial and daemon).
// Seed discipline: a scenario stream — and its tick stamps in the
// ticked variants — is a pure function of Config, independent of how
// it will be sharded, so workload streams are valid inputs to the
// exact-equality contracts.
package workload
