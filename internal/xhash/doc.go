// Package xhash implements k-wise independent hash families over the
// Mersenne prime p = 2^61 - 1, the standard construction used by streaming
// sketches such as CountSketch and the AMS F2 sketch.
//
// A degree-(k-1) polynomial with random coefficients in GF(p) evaluated at
// the key yields a k-wise independent family. Pairwise independence (k = 2)
// suffices for bucket hashes; four-wise independence (k = 4) is required for
// the variance bound of the AMS tug-of-war sketch and for CountSketch sign
// hashes. One four-wise value has bits enough for both: CountSketch reads a
// row's sign off bit 0 of the polynomial's value and the row's bucket off
// the bits above it (Sign.Hash, Sign.Bucket).
//
// Layer: substrate in ARCHITECTURE.md — the k-wise independent hash
// families every sketch row is built from.
// Seed discipline: families are constructed from forked SplitMix64
// streams; AppendCoeffs exposes coefficients for the inline hot path
// and Fingerprint digests them for the wire headers.
package xhash
