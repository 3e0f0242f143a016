// Package hotpath is the sharded ingest subsystem: per-core estimator
// shards fed hash-routed batches over bounded channels, behind a single
// estimator facade whose merged result is bit-identical to serial
// ingestion.
//
// The paper's sketches are linear in the frequency vector, so a stream
// can be partitioned by ITEM (every update to item x lands in shard
// hash(x) mod P) instead of by position: each shard sees a disjoint
// sub-stream, identically-seeded shard sketches accumulate disjoint
// counter contributions, and folding the shards is exactly the serial
// counter state. Shard-by-hash is what lets the concurrent path keep
// the repo's serial==merged exactness contract while chasing line
// rate — arrival-order nondeterminism inside a shard cannot change a
// linear counter, and every update of one item is applied by exactly
// one goroutine.
//
// ShardedEstimator owns P identically-configured one-pass shards
// (P = GOMAXPROCS unless configured). Process fans the stream out
// through one buffered channel per shard — P routers hash (item, delta)
// updates into per-shard batches and send them, one consumer goroutine
// per shard drains its channel into the shard sketch, a full channel
// blocks the router (backpressure, never a dropped batch) — and joins
// before returning, so no goroutine outlives the call. Update and
// UpdateBatch route synchronously (the daemon applies under its state
// lock, where concurrency would buy nothing), and Estimate and
// MarshalBinary fold the shards into a fresh estimator, leaving the
// shards untouched.
//
// The queue between router and shard is plumbing, not algorithm: any
// hand-off that delivers every batch exactly once yields the same shard
// state, and one hand-off per 1024 updates is ≈0.02% of the end-to-end
// cost, so the language's own bounded queue is used (the measurements
// are in EXPERIMENTS.md, "Sharded hot path").
//
// Layer: above core (the shards are core.OnePassEstimators) and util
// (chunking, worker resolution), below backend (the registry registers
// New as the "sharded" kind).
// Seed discipline: New builds every shard, and every merge target, from
// the one (g, Options) it is handed, so all of them share seeds and hash
// functions by construction.
package hotpath
