// Package util provides small shared helpers used across the repro:
// deterministic RNG plumbing, order statistics, float comparisons, and
// the contiguous chunking (Workers, Cut, ParallelChunks) that the two-pass
// candidate exchange, the sharded router and the bench topologies split
// a stream with.
//
// Layer: substrate in ARCHITECTURE.md.
// Seed discipline: SplitMix64 is the repository's only randomness
// source, and Fork order is part of every constructor's contract —
// "same seed" means "same hash functions" only because forks happen
// in a fixed order.
package util
