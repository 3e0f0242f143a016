package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
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

// TestRowRoundTrip: every row decodes to itself — the extremes, ±1, all
// zeros, a zero run that ends the row, alternating zeros — and a row adds
// into a nonzero destination counter by counter.
func TestRowRoundTrip(t *testing.T) {
	rows := map[string][]int64{
		"extremes":        {math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1},
		"unit":            {1, -1, 1, -1, -1},
		"all zeros":       make([]int64, 4096),
		"run ends row":    {5, -7, 0, 0, 0, 0},
		"run starts row":  {0, 0, 0, 9},
		"alternating":     {0, 1, 0, -1, 0, 63, 0, -64, 0, 64, 0, -65, 0},
		"varint edges":    {63, -64, 64, -65, 8191, -8192, 8192, 1 << 40, -(1 << 40)},
		"empty":           {},
		"single zero":     {0},
		"single negative": {-3},
	}
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
	rows["random"] = random
	for name, row := range rows {
		var w Writer
		w.Row(row)
		got, r := decodeRow(w.Bytes(), len(row))
		if err := r.Err(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if r.Len() != 0 {
			t.Errorf("%s: %d bytes left after the row", name, r.Len())
		}
		for i := range row {
			if got[i] != row[i] {
				t.Errorf("%s: counter %d decodes to %d, want %d", name, i, got[i], row[i])
				break
			}
		}
		dst := append([]int64(nil), row...)
		NewReader(w.Bytes()).AddRow(dst)
		for i := range row {
			if dst[i] != 2*row[i] {
				t.Errorf("%s: counter %d adds to %d, want %d", name, i, dst[i], 2*row[i])
				break
			}
		}
	}
	var w Writer
	w.Row(make([]int64, 4096))
	if len(w.Bytes()) != 4+3 {
		t.Errorf("a row of 4096 zeros is %d bytes, want its length and 3", len(w.Bytes()))
	}
}

// rowBytes is a row header declaring n counters followed by raw tokens.
func rowBytes(n uint32, tokens ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, n), tokens...)
}

// TestRowRefusesMalformedTokens: a malformed row is refused by CheckRow
// with the cause named, before any counter could move.
func TestRowRefusesMalformedTokens(t *testing.T) {
	eleven := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
	for _, tc := range []struct {
		name string
		data []byte
		n    int
		want string
	}{
		{"11-byte varint", rowBytes(1, eleven...), 1, "past 64 bits"},
		{"varint past 2^64", rowBytes(1, append(bytes.Repeat([]byte{0xff}, 9), 0x02)...), 1, "past 64 bits"},
		{"11-byte run length", rowBytes(1, append([]byte{0}, eleven...)...), 1, "past 64 bits"},
		{"run of 0", rowBytes(2, 0, 0, 2, 2), 2, "run of 0"},
		{"run past the row", rowBytes(3, 2, 0, 3), 3, "run of 3 zeros at counter 1"},
		{"row length below buckets", rowBytes(3, 0, 3), 4, "row of 3 counters, want 4"},
		{"row length above buckets", rowBytes(5, 0, 5), 4, "row of 5 counters, want 4"},
		{"tokens end early", rowBytes(3, 2, 4), 3, "truncated row"},
		{"varint ends early", rowBytes(1, 0x80), 1, "truncated varint"},
		{"run length ends early", rowBytes(4, 0), 4, "truncated varint"},
		{"no header", []byte{0, 0}, 4, "truncated payload"},
	} {
		r := NewReader(tc.data)
		r.CheckRow(tc.n)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckRow = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// A row that checks, followed by bytes no layout reads: End refuses
	// them.
	var w Writer
	w.Row([]int64{1, 0, 2})
	r := NewReader(append(w.Bytes(), 7))
	r.CheckRow(3)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	r.End()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("End after a trailing byte = %v, want a trailing-bytes error", err)
	}
}

// rowFromFuzz turns fuzz bytes into a row that mixes zero runs, small
// counters and full-width ones: a byte below 0x40 is a zero, below 0x80 a
// small signed counter, and otherwise the next 8 bytes are one counter.
func rowFromFuzz(data []byte) []int64 {
	var row []int64
	for i := 0; i < len(data); i++ {
		switch b := data[i]; {
		case b < 0x40:
			row = append(row, 0)
		case b < 0x80:
			row = append(row, int64(b)-0x60)
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
// them, and a row that checks adds in exactly what it encodes; the same
// bytes read as counters round-trip through the codec exactly.
func FuzzRow(f *testing.F) {
	var w Writer
	w.Row([]int64{0, 0, 3, -1, math.MinInt64, 0, 1 << 20})
	f.Add(w.Bytes())
	f.Add(rowBytes(1, append(bytes.Repeat([]byte{0xff}, 10), 0x01)...))
	f.Add(rowBytes(3, 2, 0, 3))
	f.Add(rowBytes(2, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:len(data):len(data)]
		if len(data) >= 4 {
			n := int(binary.BigEndian.Uint32(data) % 4097)
			row, r := decodeRow(data, n)
			if r.Len() < 0 || r.Len() > len(data) {
				t.Fatalf("read position outside the input: %d bytes left of %d", r.Len(), len(data))
			}
			if r.Err() == nil {
				var again Writer
				again.Row(row)
				back, r2 := decodeRow(again.Bytes(), n)
				if r2.Err() != nil || r2.Len() != 0 {
					t.Fatalf("a decoded row does not round-trip: %v", r2.Err())
				}
				for i := range row {
					if back[i] != row[i] {
						t.Fatalf("counter %d: %d after a round trip, want %d", i, back[i], row[i])
					}
				}
			}
		}

		row := rowFromFuzz(data)
		var enc Writer
		enc.Row(row)
		got, r := decodeRow(enc.Bytes(), len(row))
		if r.Err() != nil || r.Len() != 0 {
			t.Fatalf("encoded row refused: %v (%d bytes left)", r.Err(), r.Len())
		}
		for i := range row {
			if got[i] != row[i] {
				t.Fatalf("counter %d: decodes to %d, want %d", i, got[i], row[i])
			}
		}
	})
}
