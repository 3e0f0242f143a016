package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Version is the current layout version stamped into every header. A
// reader refuses any other: state written under one layout means nothing
// under the next, even where the bytes would still parse.
//
//	1: every level of a recursive stack ⌈log2 N⌉ deep drew its own
//	   CountSketch row hashes, a bucket and a sign polynomial per row.
//	2: a stack stops at the level whose sub-universe its tracker holds
//	   (recursive.Depth), its levels evaluate one row-hash family,
//	   level 0's (sketch.CountSketch.ShareRowHashes), and a row reads an
//	   item's bucket and sign off one polynomial value (xhash.Sign.Bucket).
//	3: the same Spec is a smaller sketch: heavy.dims takes its rows from
//	   the measured sizing frontier (5 rows of 4096 buckets a level at the
//	   benchmark's options, where version 2 built 7).
//	4: the same sketch in new bytes: a CountSketch writes its counter rows
//	   through the row codec (Writer.Row), zigzag varints with zero runs,
//	   where version 3 wrote 8 bytes a counter.
const Version uint16 = 4

// Fingerprint folds v into a running 64-bit digest h. It is a
// splittable-mix step (multiply-xorshift), order sensitive, used to
// digest hash-function coefficients and dimensions into the header
// fingerprint. Start from 0 and fold every value that must coincide
// between sender and receiver.
func Fingerprint(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// FingerprintFloat folds a float64 into the digest by bit pattern.
func FingerprintFloat(h uint64, f float64) uint64 {
	return Fingerprint(h, math.Float64bits(f))
}

// FingerprintString folds a string (length, then bytes) into the digest.
func FingerprintString(h uint64, s string) uint64 {
	h = Fingerprint(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = Fingerprint(h, uint64(s[i]))
	}
	return h
}

// Writer accumulates a wire payload by appending to one byte slice. The
// zero value is ready to use; writes cannot fail.
type Writer struct {
	buf []byte
}

// grow makes room for n more bytes, so a write of known size allocates
// once instead of doubling its way there; at least doubling when it does
// allocate keeps a run of them linear.
func (w *Writer) grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		buf := make([]byte, len(w.buf), max(2*cap(w.buf), len(w.buf)+n))
		copy(buf, w.buf)
		w.buf = buf
	}
}

// extend appends n bytes and returns them for the caller to fill: the bulk
// writers store into the slice instead of appending value by value.
func (w *Writer) extend(n int) []byte {
	w.grow(n)
	w.buf = w.buf[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

// Header writes the standard magic/version/fingerprint header.
func (w *Writer) Header(magic uint32, fingerprint uint64) {
	w.U32(magic)
	w.U16(Version)
	w.U64(fingerprint)
}

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// I64 appends a big-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// I64s appends a u32 count followed by the values.
func (w *Writer) I64s(vs []int64) {
	w.grow(4 + 8*len(vs))
	w.U32(uint32(len(vs)))
	tail := w.extend(8 * len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint64(tail[8*i:], uint64(v))
	}
}

// U64s appends a u32 count followed by the values.
func (w *Writer) U64s(vs []uint64) {
	w.grow(4 + 8*len(vs))
	w.U32(uint32(len(vs)))
	tail := w.extend(8 * len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint64(tail[8*i:], v)
	}
}

// Row appends a counter row: its u32 length, then one token per nonzero
// counter or maximal run of zeros — a nonzero counter as the uvarint of
// its zigzag form (v<<1 ^ v>>63, so small magnitudes of either sign take
// one byte), a run of zeros as a 0 byte and the uvarint of the run's
// length. The zigzag form of a nonzero counter is nonzero, so its varint
// never starts with a 0 byte and the two tokens cannot be confused. A
// row of 4096 zeros is 3 bytes after its length, a counter of magnitude
// below 64 one.
func (w *Writer) Row(vs []int64) {
	w.U32(uint32(len(vs)))
	buf := w.buf
	for i := 0; i < len(vs); {
		v := vs[i]
		if v == 0 {
			j := i + 1
			for j < len(vs) && vs[j] == 0 {
				j++
			}
			buf = binary.AppendUvarint(append(buf, 0), uint64(j-i))
			i = j
			continue
		}
		if u := uint64(v<<1) ^ uint64(v>>63); u < 0x80 {
			buf = append(buf, byte(u))
		} else {
			buf = binary.AppendUvarint(buf, u)
		}
		i++
	}
	w.buf = buf
}

// Blob appends a u32 length followed by the raw bytes, framing a nested
// payload (e.g. one recursive level's sketch inside the level list).
func (w *Writer) Blob(b []byte) {
	w.grow(4 + len(b))
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Reader decodes a wire payload. It is sticky-error: after the first
// failure every read returns a zero value and Err reports the cause, so
// decoders can read a whole layout and check once.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet consumed.
func (r *Reader) Len() int { return len(r.data) - r.pos }

// fail records the first error.
func (r *Reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take consumes n bytes, or fails if fewer remain.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.fail("wire: truncated payload: need %d bytes at offset %d, have %d", n, r.pos, r.Len())
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Header reads and validates the standard header: the magic and the
// fingerprint must match, and the version must be known.
func (r *Reader) Header(magic uint32, fingerprint uint64) error {
	m := r.U32()
	v := r.U16()
	fp := r.U64()
	if r.err != nil {
		return r.err
	}
	if m != magic {
		r.fail("wire: bad magic %#x (want %#x)", m, magic)
	} else if v != Version {
		r.fail("wire: written under layout version %d, this build reads version %d only", v, Version)
	} else if fp != fingerprint {
		r.fail("wire: fingerprint mismatch %#x vs local %#x (different seed or configuration)", fp, fingerprint)
	}
	return r.err
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// count reads a u32 count for elements of elemSize bytes, validating it
// against the remaining payload so corrupt lengths cannot force huge
// allocations. The comparison is done in uint64 so a hostile count can
// neither overflow the product nor go negative on 32-bit platforms.
func (r *Reader) count(elemSize int) int {
	v := r.U32()
	if r.err != nil {
		return 0
	}
	if uint64(v)*uint64(elemSize) > uint64(r.Len()) {
		r.fail("wire: truncated list: %d elements of %d bytes, %d bytes remain", v, elemSize, r.Len())
		return 0
	}
	return int(v)
}

// I64s reads a counted int64 list.
func (r *Reader) I64s() []int64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// U64s reads a counted uint64 list.
func (r *Reader) U64s() []uint64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// I64sInto reads a counted int64 list of exactly the given length into
// dst (GnpHeavy's trial counters, which travel raw; CountSketch rows go
// through the row codec).
func (r *Reader) I64sInto(dst []int64) {
	n := r.count(8)
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.fail("wire: list length %d, want %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.I64()
	}
}

// CheckRow reads a counter row (Writer.Row) and checks it whole: it must
// declare n counters — the receiver's buckets, not a bound from the bytes
// remaining, since a row of zeros is a few bytes — and every token must
// parse, no varint may run past 64 bits or the payload, no run may be 0
// or reach past the row's end. It changes nothing but the read position.
func (r *Reader) CheckRow(n int) { r.row(n, nil) }

// AddRow reads a counter row of len(dst) counters and adds it into dst.
// A malformed row is refused with dst partly added, so it is for rows
// CheckRow has passed: a decoder checks its whole payload first and only
// then adds (Stager).
func (r *Reader) AddRow(dst []int64) { r.row(len(dst), dst) }

// row walks a row of n counters, adding each into dst when dst is not
// nil. A token's first byte decides it: 0 opens a run of zeros, below
// 0x80 is a whole varint — the common case, decoded inline — and above it
// the varint continues.
func (r *Reader) row(n int, dst []int64) {
	if m := r.U32(); r.err == nil && uint64(m) != uint64(n) {
		r.fail("wire: row of %d counters, want %d", m, n)
	}
	if r.err != nil {
		return
	}
	data, pos := r.data, r.pos
	for i := 0; i < n; {
		if pos >= len(data) {
			r.fail("wire: truncated row: counter %d of %d at offset %d", i, n, pos)
			return
		}
		b := data[pos]
		if b == 0 {
			run, k := binary.Uvarint(data[pos+1:])
			if k <= 0 {
				r.failVarint(k, pos+1)
				return
			}
			if run == 0 || run > uint64(n-i) {
				r.fail("wire: run of %d zeros at counter %d of a %d-counter row", run, i, n)
				return
			}
			pos += 1 + k
			i += int(run)
			continue
		}
		u, k := uint64(b), 1
		if b >= 0x80 {
			if u, k = binary.Uvarint(data[pos:]); k <= 0 {
				r.failVarint(k, pos)
				return
			}
		}
		if dst != nil {
			dst[i] += int64(u>>1) ^ -int64(u&1)
		}
		pos += k
		i++
	}
	r.pos = pos
}

// failVarint records why binary.Uvarint refused the varint at offset pos:
// k == 0, the payload ended inside it; k < 0, it runs past 64 bits.
func (r *Reader) failVarint(k, pos int) {
	if k == 0 {
		r.fail("wire: truncated varint at offset %d", pos)
	} else {
		r.fail("wire: varint past 64 bits at offset %d", pos)
	}
}

// End fails unless every byte of the payload has been read: a decoder
// that has read its whole layout calls it, so bytes after it are refused,
// not ignored.
func (r *Reader) End() {
	if r.err == nil && r.Len() != 0 {
		r.fail("wire: %d trailing bytes after payload", r.Len())
	}
}

// Blob reads a length-framed nested payload.
func (r *Reader) Blob() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

// Blobs reads a u32 count and that many length-framed blobs, verifying
// the count equals want. It validates the framing of the whole sequence
// before returning, so merge-semantics decoders can check it up front
// and only then start mutating the receiver.
func (r *Reader) Blobs(want int) ([][]byte, error) {
	n := int(r.U32())
	if r.err == nil && n != want {
		r.fail("wire: blob count mismatch %d vs %d", n, want)
	}
	blobs := make([][]byte, want)
	for k := range blobs {
		blobs[k] = r.Blob()
	}
	if r.err != nil {
		return nil, r.err
	}
	return blobs, nil
}

// Stager is a merge-semantics decoder split in two, so that a payload is
// checked whole before anything merges. StageBinary reads data against the
// receiver and checks every byte of it — header, framing, every counter
// row, every nested payload — changing nothing; if it accepts, the merge
// it returns adds the payload into the receiver and cannot fail. A decoder
// that nests others stages every part before it merges any (StageEach), so
// a payload refused at any depth leaves its receiver as it was.
type Stager interface {
	StageBinary(data []byte) (merge func(), err error)
}

// Unmarshal stages data into s and merges it if the whole payload checks:
// the body of a Stager's UnmarshalBinary.
func Unmarshal(s Stager, data []byte) error {
	merge, err := s.StageBinary(data)
	if err != nil {
		return err
	}
	merge()
	return nil
}

// StageEach stages n parts in order — stage(k) stages the k-th — and
// returns the merge of all of them, or the first refusal with no part
// merged.
func StageEach(n int, stage func(k int) (func(), error)) (func(), error) {
	merges := make([]func(), n)
	for k := range merges {
		m, err := stage(k)
		if err != nil {
			return nil, err
		}
		merges[k] = m
	}
	return func() {
		for _, m := range merges {
			m()
		}
	}, nil
}
