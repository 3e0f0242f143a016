package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// decodeRow checks an encoded row of n counters and, if it passes, adds
// it into a zero row: what a Stager does with one row.
func decodeRow(data []byte, n int) ([]int64, *Reader) {
	r := NewReader(data)
	r.CheckRow(n)
	if r.Err() != nil {
		return nil, r
	}
	out := make([]int64, n)
	r = NewReader(data)
	r.AddRow(out)
	return out, r
}

// checkRowAt encodes row at order k (Row's own order when k < 0) and
// fails t unless it decodes to itself with no byte left over and adds
// into a copy of itself counter by counter.
func checkRowAt(t testing.TB, name string, row []int64, k int) {
	t.Helper()
	var w Writer
	if k < 0 {
		w.Row(row)
	} else {
		w.rowAt(row, uint(k))
	}
	got, r := decodeRow(w.Bytes(), len(row))
	if err := r.Err(); err != nil {
		t.Fatalf("%s at order %d: %v", name, k, err)
	}
	if r.Len() != 0 {
		t.Fatalf("%s at order %d: %d bytes left after the row", name, k, r.Len())
	}
	if !slices.Equal(got, row) {
		t.Fatalf("%s at order %d: decodes to %v, want %v", name, k, got, row)
	}
	dst := append([]int64(nil), row...)
	NewReader(w.Bytes()).AddRow(dst)
	for i := range row {
		if dst[i] != 2*row[i] {
			t.Fatalf("%s at order %d: counter %d adds to %d, want %d", name, k, i, dst[i], 2*row[i])
		}
	}
}

// extremeRows are the rows every order must carry: the extreme counters
// (MinInt64's zigzag form is 2^64 − 1, whose code at order 0 is the one
// past 64 bits), −1, all zeros and a single nonzero.
var extremeRows = map[string][]int64{
	"extremes":        {math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, math.MaxInt64 - 1},
	"min alone":       {math.MinInt64},
	"max alone":       {math.MaxInt64},
	"minus one":       {-1, -1, -1},
	"all zeros":       make([]int64, 100),
	"single nonzero":  append(make([]int64, 70), 5),
	"single negative": {-3},
	"empty":           {},
}

// TestRowRoundTrip: every row decodes to itself at every order from 0 to
// 63 and at the order Row picks — the extremes, ±1, all zeros, a single
// nonzero, codes across every length and alignment — and a row adds into
// a nonzero destination counter by counter. Row's order is a function of
// the counters, and prices a row within a few bits of the best order.
func TestRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	random := make([]int64, 1000)
	for i := range random {
		switch rng.Intn(4) {
		case 0:
		case 1:
			random[i] = int64(rng.NormFloat64() * 40)
		case 2:
			random[i] = int64(rng.Uint64())
		default:
			random[i] = int64(rng.Intn(3) - 1)
		}
	}
	lengths := make([]int64, 0, 2*64)
	for l := 0; l < 63; l++ {
		lengths = append(lengths, 1<<l, -(1 << l), 1<<l-1)
	}
	var runs []int64 // zero runs around the 64-bit word, between ones
	for _, r := range []int{1, 63, 64, 65, 128, 129, 200} {
		runs = append(append(runs, make([]int64, r)...), 1)
	}
	rows := map[string][]int64{"random": random, "every length": lengths, "zero runs": runs}
	for name, row := range extremeRows {
		rows[name] = row
	}
	for name, row := range rows {
		for k := -1; k < 64; k++ {
			checkRowAt(t, name, row, k)
		}
	}

	var w Writer
	w.Row(make([]int64, 4096))
	if got, want := len(w.Bytes()), 4+1+4096/8; got != want {
		t.Errorf("a row of 4096 zeros is %d bytes, want %d: its length, k and a bit a counter", got, want)
	}
	laplace := make([]int64, 2048)
	for i := range laplace {
		laplace[i] = int64(rng.ExpFloat64()*100) * int64(1-2*rng.Intn(2))
	}
	best := math.MaxInt
	for k := uint(0); k < 64; k++ {
		var w Writer
		w.rowAt(laplace, k)
		best = min(best, len(w.Bytes()))
	}
	var again Writer
	w = Writer{}
	w.Row(laplace)
	again.Row(slices.Clone(laplace))
	if !bytes.Equal(w.Bytes(), again.Bytes()) {
		t.Error("equal rows encode to different bytes")
	}
	if len(w.Bytes()) > best+best/100 {
		t.Errorf("Row spends %d bytes on a Laplace row, over 1%% past the best order's %d", len(w.Bytes()), best)
	}
}

// rowBytes is a row header declaring n counters followed by raw bytes:
// the order k, then the codes.
func rowBytes(n uint32, tokens ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, n), tokens...)
}

// TestRowRefusesMalformedTokens: a malformed row is refused by CheckRow
// with the cause named, before any counter could move.
func TestRowRefusesMalformedTokens(t *testing.T) {
	zeros := make([]byte, 20)
	// 64 zeros, a 1, then a mantissa of 63 zeros and a 1: 2^64 + 1 at
	// order 0, one past the largest value.
	onePast := append(make([]byte, 8), 0x80, 0, 0, 0, 0, 0, 0, 0, 0x80)
	for _, tc := range []struct {
		name string
		data []byte
		n    int
		want string
	}{
		{"order above 63", rowBytes(1, 64, 0x80), 1, "order 64, above 63"},
		{"order 255", rowBytes(1, 255, 0x80), 1, "order 255, above 63"},
		{"prefix past 64 bits", rowBytes(1, append([]byte{0}, zeros...)...), 1, "past 64 bits"},
		{"prefix past 64 bits at order 9", rowBytes(1, append([]byte{9}, zeros...)...), 1, "past 64 bits"},
		{"value past 2^64", rowBytes(1, append([]byte{0}, onePast...)...), 1, "past 64 bits"},
		{"nonzero pad bits", rowBytes(1, 0, 0x81), 1, "nonzero pad bits"},
		{"a pad bit after a code", rowBytes(2, 0, 0xd0), 2, "nonzero pad bits"},
		{"codes end early", rowBytes(3, 0, 0xc0), 3, "truncated row: counter 2 of 3"},
		{"code runs past the payload", rowBytes(1, 0, 0x00, 0x01), 1, "truncated row"},
		{"no codes", rowBytes(3, 0), 3, "truncated row"},
		{"no order", rowBytes(3), 3, "truncated payload"},
		{"row length below buckets", rowBytes(3, 0, 0xe0), 4, "row of 3 counters, want 4"},
		{"row length above buckets", rowBytes(5, 0, 0xf8), 4, "row of 5 counters, want 4"},
		{"no header", []byte{0, 0}, 4, "truncated payload"},
	} {
		r := NewReader(tc.data)
		r.CheckRow(tc.n)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckRow = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// The largest value's code at order 0 checks: 64 zeros, a 1, 64 zeros.
	r := NewReader(rowBytes(1, append([]byte{0}, append(make([]byte, 8), 0x80, 0, 0, 0, 0, 0, 0, 0, 0)...)...))
	if r.CheckRow(1); r.Err() != nil || r.Len() != 0 {
		t.Errorf("the code of 2^64 − 1 at order 0: %v, %d bytes left", r.Err(), r.Len())
	}

	// A row that checks, followed by bytes no layout reads: End refuses
	// them.
	var w Writer
	w.Row([]int64{1, 0, 2})
	r = NewReader(append(w.Bytes(), 7))
	r.CheckRow(3)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	r.End()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("End after a trailing byte = %v, want a trailing-bytes error", err)
	}
}

// rowFromFuzz turns fuzz bytes into a row that mixes zeros, small
// counters, full-width ones and the extremes: a byte below 0x40 is a
// zero, below 0x80 a small signed counter, 0xfe and 0xff MinInt64 and
// MaxInt64, and otherwise the next 8 bytes are one counter.
func rowFromFuzz(data []byte) []int64 {
	var row []int64
	for i := 0; i < len(data); i++ {
		switch b := data[i]; {
		case b < 0x40:
			row = append(row, 0)
		case b < 0x80:
			row = append(row, int64(b)-0x60)
		case b == 0xfe:
			row = append(row, math.MinInt64)
		case b == 0xff:
			row = append(row, math.MaxInt64)
		case i+8 < len(data):
			row = append(row, int64(binary.BigEndian.Uint64(data[i+1:])))
			i += 8
		default:
			row = append(row, int64(b)<<56)
		}
	}
	return row
}

// FuzzRow: decoding arbitrary bytes as a row never panics nor reads past
// them, and a row that checks adds in exactly what it encodes and
// re-encodes at its own order to the bytes it was read from; the same
// bytes read as counters round-trip through the codec exactly, at Row's
// order and at an order drawn from the bytes, every one from 0 to 63
// reachable.
func FuzzRow(f *testing.F) {
	var w Writer
	w.Row([]int64{0, 0, 3, -1, math.MinInt64, 0, 1 << 20, math.MaxInt64})
	f.Add(w.Bytes())
	f.Add(rowBytes(1, 64, 0x80))
	f.Add(rowBytes(1, append([]byte{0}, make([]byte, 20)...)...))
	f.Add(rowBytes(1, 0, 0x81))
	f.Add(rowBytes(3, 0, 0xc0))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:len(data):len(data)]
		if len(data) >= 4 {
			n := int(binary.BigEndian.Uint32(data) % 4097)
			row, r := decodeRow(data, n)
			if r.Len() < 0 || r.Len() > len(data) {
				t.Fatalf("read position outside the input: %d bytes left of %d", r.Len(), len(data))
			}
			if r.Err() == nil {
				// The bytes read, their length field set to n.
				read := binary.BigEndian.AppendUint32(nil, uint32(n))
				read = append(read, data[4:len(data)-r.Len()]...)
				var again Writer
				again.rowAt(row, uint(data[4]))
				if !bytes.Equal(again.Bytes(), read) {
					t.Fatalf("a row read from %x re-encodes at its order to %x", read, again.Bytes())
				}
			}
		}

		row := rowFromFuzz(data)
		checkRowAt(t, "fuzz", row, -1)
		if len(data) > 0 {
			checkRowAt(t, "fuzz", row, int(data[0]%64))
		}
	})
}

// idBytes is an id-set header declaring n ids followed by raw varints.
func idBytes(n uint32, varints ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, n), varints...)
}

// TestIDsRoundTrip: an ascending set decodes to itself, the extremes
// included, and a tracker's worth of ids over a 2^20 universe takes
// about two bytes an id.
func TestIDsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	tracker := make([]uint64, 0, 385)
	seen := map[uint64]bool{}
	for len(tracker) < cap(tracker) {
		if id := uint64(rng.Intn(1 << 20)); !seen[id] {
			seen[id] = true
			tracker = append(tracker, id)
		}
	}
	sort.Slice(tracker, func(i, j int) bool { return tracker[i] < tracker[j] })
	for name, ids := range map[string][]uint64{
		"empty":    nil,
		"zero":     {0},
		"extremes": {0, 1, 127, 128, 1 << 40, math.MaxUint64 - 1, math.MaxUint64},
		"max":      {math.MaxUint64},
		"tracker":  tracker,
	} {
		var w Writer
		w.IDs(ids)
		r := NewReader(w.Bytes())
		got := r.IDs()
		if r.Err() != nil || r.Len() != 0 || !slices.Equal(got, ids) {
			t.Errorf("%s: decodes to %v (%v, %d bytes left), want %v", name, got, r.Err(), r.Len(), ids)
		}
		if name == "tracker" && len(w.Bytes()) > 4+5*len(ids)/2 {
			t.Errorf("a tracker of %d ids over 2^20 takes %d bytes, want at most 2.5 an id", len(ids), len(w.Bytes()))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("IDs wrote a set out of order")
		}
	}()
	var w Writer
	w.IDs([]uint64{3, 3})
}

// TestIDsRefuseMalformed: a malformed id set is refused with the cause
// named.
func TestIDsRefuseMalformed(t *testing.T) {
	past := append(bytes.Repeat([]byte{0xff}, 9), 0x01) // 2^64 − 1
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"zero gap", idBytes(2, 5, 0), "repeats id 5"},
		{"sum past 2^64", idBytes(2, append(past, 1)...), "passes 2^64"},
		{"gap past 2^64", idBytes(2, append([]byte{2}, past...)...), "passes 2^64"},
		{"non-minimal varint", idBytes(1, 0x81, 0x00), "not minimal"},
		{"varint past 64 bits", idBytes(1, append(bytes.Repeat([]byte{0xff}, 10), 0x01)...), "past 64 bits"},
		{"varint ends early", idBytes(2, 1, 0x80), "truncated varint"},
		{"count past the bytes", idBytes(3, 1, 2), "truncated list"},
		{"no header", []byte{0, 0}, "truncated payload"},
	} {
		r := NewReader(tc.data)
		if got := r.IDs(); r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) || got != nil {
			t.Errorf("%s: IDs = %v, %v; want nothing and an error containing %q", tc.name, got, r.Err(), tc.want)
		}
	}
}

// FuzzCandidateIDs: decoding arbitrary bytes as an id set never panics;
// a set it accepts is strictly ascending — a zero gap and a sum past
// 2^64 are refused — and re-encodes to exactly the bytes it was read
// from.
func FuzzCandidateIDs(f *testing.F) {
	var w Writer
	w.IDs([]uint64{0, 1, 5, 300, 1 << 40, math.MaxUint64})
	f.Add(w.Bytes())
	f.Add(idBytes(2, 5, 0))
	f.Add(idBytes(2, append(bytes.Repeat([]byte{0xff}, 9), 0x01, 1)...))
	f.Add(idBytes(1, 0x81, 0x00))
	f.Add(idBytes(0))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		ids := r.IDs()
		if r.Len() < 0 || r.Len() > len(data) {
			t.Fatalf("read position outside the input: %d bytes left of %d", r.Len(), len(data))
		}
		if r.Err() != nil {
			if ids != nil {
				t.Fatalf("a refused set returned %d ids", len(ids))
			}
			return
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("id %d is %d after %d: not strictly ascending", i, ids[i], ids[i-1])
			}
		}
		var again Writer
		again.IDs(ids)
		if read := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), read) {
			t.Fatalf("%d ids re-encode to %x, read from %x", len(ids), again.Bytes(), read)
		}
	})
}
