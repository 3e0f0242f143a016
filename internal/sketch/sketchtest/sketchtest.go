// Package sketchtest crafts and checks sketch wire payloads for tests: a
// payload that is well framed at every layer and wrong only where a
// decoder reads counters (BreakLastRow), and the assertion every decoder
// owes its caller, that a refused payload changes nothing (RefusedIsNoOp).
//
// Layer: test support, imported only by _test.go files. Seed discipline:
// none of its own — it edits bytes an identically seeded sender wrote.
package sketchtest

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"testing"

	"repro/internal/wire"
)

// countSketchMagic is sketch.CountSketch's wire magic ("gSUC").
const countSketchMagic uint32 = 0x67535543

// BreakLastRow returns a copy of payload in which the last CountSketch it
// carries — the deepest level of a recursive stack, say — has its last
// counter row declare one
// counter fewer than its buckets. Every frame around that row still
// parses; a decoder refuses the payload only once it reaches the row.
func BreakLastRow(t testing.TB, payload []byte) []byte {
	t.Helper()
	head := binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(nil, countSketchMagic), wire.Version)
	at := bytes.LastIndex(payload, head)
	if at < 0 {
		t.Fatal("sketchtest: the payload carries no CountSketch")
	}
	r := wire.NewReader(payload[at+len(head)+8:]) // past the fingerprint
	rows, buckets := int(r.U32()), r.U64()
	for j := 0; j < rows-1; j++ {
		r.CheckRow(int(buckets))
	}
	if r.Err() != nil {
		t.Fatalf("sketchtest: the last CountSketch does not parse: %v", r.Err())
	}
	last := len(payload) - r.Len()
	out := append([]byte(nil), payload...)
	binary.BigEndian.PutUint32(out[last:], uint32(buckets-1))
	return out
}

// RefusedIsNoOp decodes data into m with unmarshal — m's UnmarshalBinary,
// or another merge-semantics decoder of m's — and, if the decode is
// refused, fails t unless m marshals to the bytes it did before.
func RefusedIsNoOp(t testing.TB, m encoding.BinaryMarshaler, unmarshal func([]byte) error, data []byte) {
	t.Helper()
	before, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if unmarshal(data) == nil {
		return
	}
	after, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a refused payload changed the receiver")
	}
}
