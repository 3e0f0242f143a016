// Package sketch implements the linear sketches the paper's algorithms are
// built from: CountSketch (Charikar, Chen, Farach-Colton) and the AMS F2
// tug-of-war sketch. All sketches are linear in
// the frequency vector, mergeable, and deterministic given a seed.
//
// Layer: the sketch layer of ARCHITECTURE.md, directly above
// internal/xhash.
// Seed discipline: a sketch's hash functions are drawn from the
// constructor rng, a fork per row in row order (CountSketch: one 4-wise
// polynomial a row, read for both bucket and sign; AMS: a sign hash); a
// CountSketch may then be told to evaluate
// another's family (ShareRowHashes: the levels of a recursive stack
// share level 0's). Merge and UnmarshalBinary are only meaningful between
// same-dimension, same-seed sketches — dimensions are checked
// in-process, and the wire fingerprint checks the hash coefficients
// themselves.
package sketch
