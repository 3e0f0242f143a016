// Package wire is the shared binary wire format used to ship sketch
// state between processes (workers -> coordinator in the distributed
// g-SUM deployment; see cmd/gsumd).
//
// Every serialized summary starts with the same 14-byte header:
//
//	magic u32 | version u16 | fingerprint u64
//
// followed by type-specific fields, all big endian. The magic names the
// type, the version names the layout, and the fingerprint is a digest of
// the receiver's hash-function coefficients and dimensions: two sketches
// built from the same seed (and configuration) have equal fingerprints,
// so a decode onto a sketch constructed with a different seed fails fast
// instead of silently merging incompatible counter states. Hash
// functions themselves never travel — they are reconstructed
// deterministically from the seed, keeping payloads proportional to the
// counter state only. This is the seed-discipline rule of
// sketch.CountSketch.Merge, promoted to a checked wire invariant.
//
// Counter rows — the bulk of every sketch payload — travel through one
// codec (Writer.Row, Reader.CheckRow, Reader.AddRow): a row's u32 length,
// one byte k, then every counter's zigzag form as an order-k
// exponential-Golomb code (Teuhola 1978), bit-packed MSB first and
// zero-padded to a byte. k is the order the row's own bit lengths price
// cheapest, so one row's counters fix its bytes; a zero costs k + 1 bits
// and a counter near ±2^j about j + 2, where a byte-aligned varint spent
// at least 8 on each nonzero counter. The encoder packs whole 64-bit
// words and the decoder reads codes off 64-bit loads by their leading
// zeros. A row's declared length is checked against the receiver's
// buckets, and every code against the payload's end. Candidate ids — a tracker's items, a
// two-pass candidate set — travel through another (Writer.IDs,
// Reader.IDs): a u32 count, then the ids ascending as uvarint gaps, with
// one encoding per set.
//
// Decoders must never panic on corrupt input: the Reader is
// sticky-error, validates every length field against the bytes actually
// remaining (or, for rows, the receiver's dimensions), and caps
// allocations accordingly.
//
// Merge-semantics decoders never half-merge: a refused payload leaves
// the receiver byte-identical. Every decoder that walks nested payloads
// into live state is a Stager — StageBinary checks its whole payload,
// every nested part included, changing nothing, and returns the merge,
// which cannot fail — and stages every part before it merges any
// (StageEach). So a corrupt byte in the last row of the deepest level
// of a snapshot is refused with nothing added, and the daemon's
// /v1/merge answers its 409 with the live aggregate as it was.
//
// Layer: substrate in ARCHITECTURE.md — every serialized summary is
// built from this package's header, writer, and sticky-error reader.
// Seed discipline: this package is where the rule becomes checkable —
// fingerprints digest receiver-side hash coefficients and dimensions,
// so decoding onto a mismatched seed or shape fails before any counter
// mutates.
package wire
