package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/stream"
)

const testFP = 0x1234deadbeef5678

func testBatch() []stream.Update {
	return []stream.Update{
		{Item: 0, Delta: 1},
		{Item: 41, Delta: -3},
		{Item: 1<<63 - 1, Delta: 1 << 40},
		{Item: ^uint64(0), Delta: -(1 << 62)},
	}
}

// decodeBoth decodes payload into nil and into two dirty reused slices,
// one with room for the batch and one without, and fails the test unless
// all three give the same seq, updates and error.
func decodeBoth(t *testing.T, payload []byte, fp uint64) (uint64, []stream.Update, error) {
	t.Helper()
	seq, ups, err := UnmarshalIngestFrame(payload, fp)
	for _, n := range []int{64, 2} {
		dirty := make([]stream.Update, n)
		for i := range dirty {
			dirty[i] = stream.Update{Item: 0xdead, Delta: -int64(i) - 1}
		}
		seq2, ups2, err2 := DecodeIngestFrame(dirty[:n/2], payload, fp)
		if seq2 != seq || !slices.Equal(ups2, ups) || (err2 == nil) != (err == nil) ||
			err != nil && err2.Error() != err.Error() {
			t.Fatalf("into a dirty slice of %d: seq %d, %d updates, error %v; into nil: seq %d, %d updates, error %v",
				n, seq2, len(ups2), err2, seq, len(ups), err)
		}
	}
	return seq, ups, err
}

func TestIngestFrameRoundTrip(t *testing.T) {
	batch := testBatch()
	payload := AppendIngestFrame(testFP, 7, batch)
	seq, got, err := decodeBoth(t, payload, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Fatalf("seq = %d, want 7", seq)
	}
	if len(got) != len(batch) {
		t.Fatalf("got %d updates, want %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Fatalf("update %d: got %+v, want %+v", i, got[i], batch[i])
		}
	}
}

// TestAppendIngestFrameAllocatesOnce is the allocation gate of the
// stream transport's encoder: a frame is sized before it is written
// (26 bytes and 16 per update), so encoding one costs the one allocation
// of its payload, whatever the batch. (Encoding every scalar through
// binary.Write used to cost two per update.) Into a buffer with room, the
// framed encoder and the decoder allocate nothing.
func TestAppendIngestFrameAllocatesOnce(t *testing.T) {
	for _, n := range []int{0, 4, 4096} {
		batch := make([]stream.Update, n)
		for i := range batch {
			batch[i] = stream.Update{Item: uint64(i) * 0x9e3779b97f4a7c15, Delta: int64(i) - 7}
		}
		var payload []byte
		if allocs := testing.AllocsPerRun(20, func() { payload = AppendIngestFrame(testFP, 7, batch) }); allocs > 1 {
			t.Errorf("%d updates: AppendIngestFrame allocated %.1f times per frame, want at most 1", n, allocs)
		}
		if want := 26 + 16*n; len(payload) != want {
			t.Errorf("%d updates: frame of %d bytes, want %d", n, len(payload), want)
		}
		frame := make([]byte, 0, 4+len(payload))
		if allocs := testing.AllocsPerRun(20, func() { frame = AppendFramedIngest(frame[:0], testFP, 7, batch) }); allocs != 0 {
			t.Errorf("%d updates: AppendFramedIngest into a buffer with room allocated %.1f times per frame, want 0", n, allocs)
		}
		dst := make([]stream.Update, n)
		if allocs := testing.AllocsPerRun(20, func() { _, dst, _ = DecodeIngestFrame(dst, payload, testFP) }); allocs != 0 {
			t.Errorf("%d updates: DecodeIngestFrame into a slice with room allocated %.1f times per frame, want 0", n, allocs)
		}
	}
}

// TestFramedEncodersAreLengthPrefixedPayloads pins the framed encoders to
// the payload encoders: a frame is the payload's u32 big-endian length,
// then the payload, appended after whatever dst held. So the bytes on the
// wire are those WriteFrame puts there for the same payload.
func TestFramedEncodersAreLengthPrefixedPayloads(t *testing.T) {
	prefixed := func(payload []byte) []byte {
		return append(binary.BigEndian.AppendUint32([]byte("held"), uint32(len(payload))), payload...)
	}
	for _, batch := range [][]stream.Update{nil, testBatch()} {
		want := prefixed(AppendIngestFrame(testFP, 9, batch))
		if got := AppendFramedIngest([]byte("held"), testFP, 9, batch); !bytes.Equal(got, want) {
			t.Errorf("%d updates: framed frame %x, want %x", len(batch), got, want)
		}
	}
	for _, ack := range []IngestAck{
		{Seq: 3, Total: 9000, Status: IngestAckOK},
		{Seq: 4, Total: 9000, Status: IngestAckError, Msg: "item 9 outside domain"},
	} {
		want := prefixed(AppendIngestAck(testFP, ack))
		if got := AppendFramedIngestAck([]byte("held"), testFP, ack); !bytes.Equal(got, want) {
			t.Errorf("ack %+v: framed ack %x, want %x", ack, got, want)
		}
	}
}

func TestIngestFrameEmptyBatch(t *testing.T) {
	payload := AppendIngestFrame(testFP, 1, nil)
	seq, got, err := decodeBoth(t, payload, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || len(got) != 0 {
		t.Fatalf("seq=%d len=%d, want 1, 0", seq, len(got))
	}
}

func TestIngestFrameRejectsFingerprintDrift(t *testing.T) {
	payload := AppendIngestFrame(testFP, 1, testBatch())
	if _, _, err := decodeBoth(t, payload, testFP+1); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("want fingerprint error, got %v", err)
	}
}

func TestIngestFrameRejectsTruncationAndTrailing(t *testing.T) {
	payload := AppendIngestFrame(testFP, 1, testBatch())
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := decodeBoth(t, payload[:cut], testFP); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := decodeBoth(t, append(append([]byte{}, payload...), 0xff), testFP); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

func TestIngestFrameRejectsHostileCount(t *testing.T) {
	// A frame claiming 2^32-1 updates with almost no bytes behind it must
	// fail before allocating.
	payload := AppendIngestFrame(testFP, 1, testBatch())
	// The count sits right after header (14 bytes) + seq (8 bytes).
	corrupt := append([]byte{}, payload...)
	for i := 22; i < 26; i++ {
		corrupt[i] = 0xff
	}
	if _, _, err := decodeBoth(t, corrupt, testFP); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncated error, got %v", err)
	}
}

func TestIngestAckRoundTrip(t *testing.T) {
	for _, ack := range []IngestAck{
		{Seq: 3, Total: 9000, Status: IngestAckOK},
		{Seq: 4, Total: 9000, Status: IngestAckError, Msg: "item 9 outside domain"},
		{Seq: 4, Total: 9000, Status: IngestAckDraining, Msg: "daemon draining"},
	} {
		payload := AppendIngestAck(testFP, ack)
		got, err := UnmarshalIngestAck(payload, testFP)
		if err != nil {
			t.Fatal(err)
		}
		if got != ack {
			t.Fatalf("got %+v, want %+v", got, ack)
		}
	}
}

func TestIngestAckRejectsDriftAndTruncation(t *testing.T) {
	payload := AppendIngestAck(testFP, IngestAck{Seq: 1, Status: IngestAckOK})
	if _, err := UnmarshalIngestAck(payload, testFP^1); err == nil {
		t.Fatal("fingerprint drift accepted")
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := UnmarshalIngestAck(payload[:cut], testFP); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestFrameReadWriteRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p1 := AppendIngestFrame(testFP, 1, testBatch())
	p2 := AppendIngestFrame(testFP, 2, nil)
	if err := WriteFrame(&buf, p1); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, p2); err != nil {
		t.Fatal(err)
	}
	got1, err := ReadFrame(&buf, MaxIngestFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFrame(&buf, MaxIngestFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, p1) || !bytes.Equal(got2, p2) {
		t.Fatal("frame payloads did not round-trip")
	}
	// A clean end-of-stream between frames is io.EOF, not a corruption
	// error.
	if _, err := ReadFrame(&buf, MaxIngestFrameBytes); err != io.EOF {
		t.Fatalf("want io.EOF at clean end, got %v", err)
	}
	// ReadFrameInto reads the same payloads, into the buffer it is handed
	// while that has room.
	framed := append(AppendFramedIngest(nil, testFP, 1, testBatch()), AppendFramedIngest(nil, testFP, 2, nil)...)
	r := bytes.NewReader(framed)
	room := make([]byte, 0, len(p1))
	for _, want := range [][]byte{p1, p2} {
		got, err := ReadFrameInto(r, room, MaxIngestFrameBytes)
		if err != nil || !bytes.Equal(got, want) || &got[0] != &room[:1][0] {
			t.Fatalf("ReadFrameInto: %x, %v; want %x in the buffer handed in", got, err, want)
		}
	}
	if _, err := ReadFrameInto(r, room, MaxIngestFrameBytes); err != io.EOF {
		t.Fatalf("ReadFrameInto: want io.EOF at clean end, got %v", err)
	}
}

func TestReadFrameRejectsOversizeBeforeAllocating(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB claim, no payload
	if _, err := ReadFrame(&buf, MaxIngestFrameBytes); err == nil ||
		!strings.Contains(err.Error(), "cap") {
		t.Fatalf("want cap error, got %v", err)
	}
}

func TestReadFrameTruncatedMidPayload(t *testing.T) {
	var buf bytes.Buffer
	payload := AppendIngestFrame(testFP, 1, testBatch())
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc), MaxIngestFrameBytes); err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
	// Truncation inside the length prefix itself is also unexpected.
	if _, err := ReadFrame(bytes.NewReader(trunc[:2]), MaxIngestFrameBytes); err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF in prefix, got %v", err)
	}
}

// FuzzIngestFrameUnmarshal asserts the frame decoder never panics and
// never over-allocates: truncated, corrupted, wrong-magic, and
// hostile-count payloads must all return errors (or succeed harmlessly).
func FuzzIngestFrameUnmarshal(f *testing.F) {
	valid := AppendIngestFrame(testFP, 3, testBatch())
	f.Add(valid)
	for _, cut := range []int{0, 4, 13, 14, 22, 26, len(valid) / 2, len(valid) - 1} {
		if cut >= 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	badMagic := append([]byte{}, valid...)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	badCount := append([]byte{}, valid...)
	badCount[22], badCount[23] = 0xff, 0xff
	f.Add(badCount)
	f.Add(AppendIngestAck(testFP, IngestAck{Seq: 1, Msg: "x"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, ups, _ := decodeBoth(t, data, testFP) // must not panic
		if len(ups)*16 > len(data) {
			t.Fatalf("decoded %d updates from %d bytes", len(ups), len(data))
		}
		_, _ = UnmarshalIngestAck(data, testFP) // must not panic
	})
}
