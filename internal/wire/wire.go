package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
//	5: the same Spec is a narrower sketch in fewer bytes: heavy.dims ships
//	   half of version 4's buckets (5 rows of 2048 a level at the
//	   benchmark's options), which the pruning window's fixed point
//	   (heavy.OnePass.ErrorWindow) allows, and candidate ids — a
//	   CountSketch's tracked items, a two-pass sketch's candidate set —
//	   travel ascending through the id codec (Writer.IDs), where version 4
//	   wrote 8 bytes an id.
//	6: the same sketch in fewer bytes: a counter row (Writer.Row) carries
//	   an order k and every counter as an order-k exp-Golomb code, bit
//	   packed, where version 5 spent at least a byte on each nonzero
//	   counter.
const Version uint16 = 6

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

// I64s appends a u32 count followed by the values.
func (w *Writer) I64s(vs []int64) {
	w.grow(4 + 8*len(vs))
	w.U32(uint32(len(vs)))
	tail := w.extend(8 * len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint64(tail[8*i:], uint64(v))
	}
}

// Row appends a counter row: its u32 length, one byte k, then every
// counter's zigzag form (v<<1 ^ v>>63, so small magnitudes of either sign
// are small) as an order-k exp-Golomb code, bit-packed MSB first and
// zero-padded to a byte. The code of u is the binary of u>>k + 1 after as
// many 0 bits as that binary has bits less one, then u's low k bits: k + 1
// bits for a u below 2^k, about 2L − k − 1 for one of L > k bits. k is
// the order the row's bit lengths price cheapest (rowOrder), a function
// of the counters alone, so equal rows are equal bytes. A row of 4096
// zeros is 512 bytes after its length and k; a row of counters near ±2^j
// is about j + 2 bits a counter.
func (w *Writer) Row(vs []int64) {
	k, cost := rowOrder(vs)
	w.grow(4 + 1 + cost/16 + 8)
	w.rowAt(vs, k)
}

// rowAt appends vs as a row of order k ≤ 63.
func (w *Writer) rowAt(vs []int64, k uint) {
	w.U32(uint32(len(vs)))
	buf := append(w.buf, byte(k))
	var acc uint64 // the pending bits, right-aligned
	var n uint     // how many are pending, below 64
	mask := uint64(1)<<k - 1
	for i := 0; i < len(vs); i++ {
		v := vs[i]
		if k == 0 && v == 0 {
			// A run of zeros at order 0 is a run of 1 bits.
			j := i + 1
			for j < len(vs) && vs[j] == 0 {
				j++
			}
			for r := uint(j - i); r > 0; r -= min(r, 64) {
				buf, acc, n = put(buf, acc, n, ^uint64(0)>>(64-min(r, 64)), min(r, 64))
			}
			i = j - 1
			continue
		}
		u := uint64(v<<1) ^ uint64(v>>63)
		q := u>>k + 1
		l := uint(bits.Len64(q))
		if m := 2*l - 1 + k; q != 0 && m <= 64 {
			buf, acc, n = put(buf, acc, n, q<<k|u&mask, m)
			continue
		}
		buf, acc, n = putLong(buf, acc, n, u, k)
	}
	// The last bits, zero-padded to a byte.
	acc <<= 64 - n
	for i := uint(0); i < n; i += 8 {
		buf = append(buf, byte(acc>>(56-i)))
	}
	w.buf = buf
}

// putLong appends u's order-k code when it is longer than 64 bits, in
// three parts: its zeros, u>>k + 1 and u's low k bits. u>>k + 1 wraps to 0
// only for u = 2^64 − 1 at k = 0, whose code is 64 zeros, a 1 and 64
// zeros.
func putLong(buf []byte, acc uint64, n uint, u uint64, k uint) ([]byte, uint64, uint) {
	q := u>>k + 1
	if q == 0 {
		buf, acc, n = put(buf, acc, n, 0, 64)
		buf, acc, n = put(buf, acc, n, 1, 1)
		return put(buf, acc, n, 0, 64)
	}
	l := uint(bits.Len64(q))
	buf, acc, n = put(buf, acc, n, 0, l-1)
	buf, acc, n = put(buf, acc, n, q, l)
	return put(buf, acc, n, u&(uint64(1)<<k-1), k)
}

// put appends the low m ≤ 64 bits of v, which must hold all of v, to the
// n < 64 pending bits acc, and moves every whole 64-bit word they fill to
// buf, MSB first.
func put(buf []byte, acc uint64, n uint, v uint64, m uint) ([]byte, uint64, uint) {
	if n+m < 64 {
		return buf, acc<<m | v, n + m
	}
	s := 64 - n // v's top s bits complete the word
	buf = binary.BigEndian.AppendUint64(buf, acc<<s|v>>(m-s))
	return buf, v & (uint64(1)<<(m-s) - 1), m - s
}

// rowOrder returns the exp-Golomb order k in [0, 63] that codes vs in the
// fewest bits, priced off a histogram of their zigzag forms' bit lengths.
// A value u costs 2·bitlen(u + 2^k) − k − 1 bits at order k: k + 1 when u
// has at most k bits, and 2L − k − 1 when it has L = k + j > k, plus 2
// when its top j bits are all ones. That carry is certain at j = 1 and,
// for values spread evenly over their length, half as likely at each
// longer j: priced at j ≤ 3 and left out beyond, in half bits. Ties go to
// the smaller k. Within 0.1% of the best order at the benchmark's state.
// The row's price at k comes back too, in half bits.
func rowOrder(vs []int64) (uint, int) {
	// Four histograms, summed after, so that a run of equal lengths does
	// not wait on its own increments.
	var part [4][67]int32
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		part[0][bits.Len64(uint64(vs[i]<<1)^uint64(vs[i]>>63))]++
		part[1][bits.Len64(uint64(vs[i+1]<<1)^uint64(vs[i+1]>>63))]++
		part[2][bits.Len64(uint64(vs[i+2]<<1)^uint64(vs[i+2]>>63))]++
		part[3][bits.Len64(uint64(vs[i+3]<<1)^uint64(vs[i+3]>>63))]++
	}
	for ; i < len(vs); i++ {
		part[0][bits.Len64(uint64(vs[i]<<1)^uint64(vs[i]>>63))]++
	}
	var hist [67]int
	for l := range hist {
		hist[l] = int(part[0][l]) + int(part[1][l]) + int(part[2][l]) + int(part[3][l])
	}
	// At order k: below counts the values of at most k bits, above the
	// rest, and longer sums the rest's bit lengths. Costs are in half bits.
	below, above, longer := 0, len(vs), 0
	for l, c := range hist {
		longer += l * c
	}
	best, bestCost := uint(0), -1
	for k := 0; k < 64; k++ {
		below += hist[k]
		above -= hist[k]
		longer -= k * hist[k]
		cost := 2*((below-above)*(k+1)+2*longer) + 4*hist[k+1] + 2*hist[k+2] + hist[k+3]
		if bestCost < 0 || cost < bestCost {
			best, bestCost = uint(k), cost
		}
	}
	return best, bestCost
}

// IDs appends a set of item ids, which must be strictly ascending: its
// u32 count, then the first id and each later id's gap to the one before
// it, each as a uvarint. Ids drawn from a universe of n items, k of them,
// take about log2(n/k)/7 + 1 bytes each: two for a tracker of 385 over
// 2^20 items, where a u64 takes eight. It panics on ids out of order, a
// caller's bug the reader would refuse.
func (w *Writer) IDs(ids []uint64) {
	w.U32(uint32(len(ids)))
	buf := w.buf
	var prev uint64
	for i, id := range ids {
		if i > 0 && id <= prev {
			panic(fmt.Sprintf("wire: ids not strictly ascending: %d after %d", id, prev))
		}
		buf = binary.AppendUvarint(buf, id-prev)
		prev = id
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

// IDs reads an id set (Writer.IDs) and checks it whole: the count must
// fit the bytes remaining at a byte an id, every varint must parse and be
// minimal (no 0 last byte after the first, so a set has one encoding), no
// gap after the first id may be 0 (a repeated id), and no id may pass
// 2^64 − 1. The ids come back strictly ascending.
func (r *Reader) IDs() []uint64 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	var prev uint64
	for i := range out {
		gap, k := binary.Uvarint(r.data[r.pos:])
		switch {
		case k <= 0:
			r.failVarint(k, r.pos)
		case k > 1 && r.data[r.pos+k-1] == 0:
			r.fail("wire: id %d of %d: a %d-byte varint of %d is not minimal, at offset %d", i, n, k, gap, r.pos)
		case i > 0 && gap == 0:
			r.fail("wire: id %d of %d repeats id %d at offset %d", i, n, prev, r.pos)
		case gap > math.MaxUint64-prev:
			r.fail("wire: id %d of %d passes 2^64 at offset %d", i, n, r.pos)
		}
		if r.err != nil {
			return nil
		}
		r.pos += k
		prev += gap
		out[i] = prev
	}
	return out
}

// CheckRow reads a counter row (Writer.Row) and checks it whole: it must
// declare n counters — the receiver's buckets — and an order k of at most
// 63, no code may run past the payload or decode past 2^64 − 1, and the
// bits padding its last byte must be 0. It changes nothing but the read
// position.
func (r *Reader) CheckRow(n int) { r.row(n, nil) }

// AddRow reads a counter row of len(dst) counters and adds it into dst.
// A malformed row is refused with dst partly added, so it is for rows
// CheckRow has passed: a decoder checks its whole payload first and only
// then adds (Stager).
func (r *Reader) AddRow(dst []int64) { r.row(len(dst), dst) }

// row walks a row of n counters, adding each into dst when dst is not
// nil. It loads the 64-bit word at the next code's first byte — 57 bits
// or more of codes, whatever their alignment — and reads codes off it
// while they fit, each one's leading zeros giving its length; at k = 0,
// where a zero counter is a single 1 bit, a run of 1 bits skips that many
// counters at once. A code longer than a fresh word holds, or one in the
// payload's last 8 bytes, takes the bitwise path (longCode).
func (r *Reader) row(n int, dst []int64) {
	if m := r.U32(); r.err == nil && uint64(m) != uint64(n) {
		r.fail("wire: row of %d counters, want %d", m, n)
	}
	kb := r.take(1)
	if r.err != nil {
		return
	}
	k := int(kb[0])
	if k > 63 {
		r.fail("wire: row of exp-Golomb order %d, above 63", k)
		return
	}
	data := r.data
	pos := 8 * r.pos // in bits
	for i := 0; i < n; {
		if at := pos >> 3; at+8 <= len(data) {
			word := binary.BigEndian.Uint64(data[at:]) << (pos & 7)
			fresh := 64 - pos&7
			valid := fresh // the bits of word that are payload; the rest are 0
			for i < n {
				if k == 0 && word>>63 != 0 {
					run := min(bits.LeadingZeros64(^word), n-i)
					word <<= run
					valid -= run
					i += run
					continue
				}
				m := 2*bits.LeadingZeros64(word) + 1 + k
				if m > valid {
					break
				}
				if dst != nil {
					u := word>>(64-m) - uint64(1)<<k
					dst[i] += int64(u>>1) ^ -int64(u&1)
				}
				word <<= m
				valid -= m
				i++
			}
			pos += fresh - valid
			if valid < fresh {
				continue
			}
		}
		u, ok := r.longCode(&pos, k, i, n)
		if !ok {
			return
		}
		if dst != nil {
			dst[i] += int64(u>>1) ^ -int64(u&1)
		}
		i++
	}
	if pos&7 != 0 && data[pos>>3]<<(pos&7) != 0 {
		r.fail("wire: nonzero pad bits after a %d-counter row at offset %d", n, pos>>3)
		return
	}
	r.pos = (pos + 7) >> 3
}

// longCode reads counter i's order-k code at bit offset *pos bit by bit
// and advances *pos past it, or fails: the payload ends inside it, or its
// value passes 2^64 − 1.
func (r *Reader) longCode(pos *int, k, i, n int) (uint64, bool) {
	data, p := r.data, *pos
	bit := func() uint64 {
		b := uint64(data[p>>3]>>(7-p&7)) & 1
		p++
		return b
	}
	// The value is u + 2^k, a binary of z + 1 + k bits after z zeros: it
	// fits u when z < 64 − k, or z = 64 − k and its top bit stands alone.
	z := 0
	for ; ; z++ {
		if p+z+1+k > 8*len(data) {
			r.fail("wire: truncated row: counter %d of %d at offset %d", i, n, p>>3)
			return 0, false
		}
		if bit() == 1 {
			break
		}
		if z == 64-k {
			r.fail("wire: counter %d of %d: exp-Golomb code past 64 bits at offset %d", i, n, p>>3)
			return 0, false
		}
	}
	var q uint64
	for j := 0; j < z; j++ {
		q = q<<1 | bit()
	}
	if z == 64-k && q != 0 {
		r.fail("wire: counter %d of %d: exp-Golomb code past 64 bits at offset %d", i, n, p>>3)
		return 0, false
	}
	u := (uint64(1)<<z | q) - 1
	for j := 0; j < k; j++ {
		u = u<<1 | bit()
	}
	*pos = p
	return u, true
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
