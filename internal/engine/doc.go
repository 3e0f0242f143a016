// Package engine holds the ingestion contracts every summary implements
// and the chunking helpers the callers that split a stream share.
//
// Every summary in this repository is a linear sketch: the state reached
// by processing a stream is the sum of the states reached by processing
// any partition of it (core/merge.go, heavy/merge.go, recursive/merge.go).
// Two things here rest on that:
//
//   - Batching: Ingest feeds a Sketcher through its UpdateBatch path in
//     DefaultBatchSize chunks; a batch path collapses duplicate items —
//     once per batch, whoever owns a stack of level sketches collapsing
//     for all of them (sketch.Batch, recursive.Cascade) — hashes each
//     distinct item once per row, for all the levels it reaches, and
//     touches each counter row once per distinct item, leaving the
//     counter state exactly as per-update ingestion would.
//   - Chunking: Workers, Cut and ParallelChunks split an update slice
//     into contiguous near-equal chunks, one goroutine each. Chunk
//     boundaries are a pure function of the lengths, so whatever a caller
//     builds on them (the two-pass candidate exchange in core, the
//     routers of internal/hotpath, the daemon topologies of
//     internal/workload) is independent of goroutine scheduling.
//
// The one concurrent one-pass ingest path is internal/hotpath (kind
// "sharded"); this package has no harness of its own.
//
// Layer: the harness layer of ARCHITECTURE.md — it owns the
// Sketcher/BatchSketcher/Mergeable contracts every summary implements.
// Seed discipline: none of its own; it never constructs a sketch.
package engine
