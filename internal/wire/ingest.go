package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/stream"
)

// Streaming ingest frames: the binary transport behind gsumd's
// /v1/stream endpoint. Unlike the sketch wire formats in this package,
// ingest frames are transient — they carry raw updates, not summary
// state — but they reuse the same header discipline: every frame is
// stamped with the sender's Spec fingerprint, so a client configured
// against the wrong daemon fails on the first frame, before a single
// update is absorbed.
//
// On-wire layout (everything big endian):
//
//	u32 length                      payload bytes that follow
//	payload:
//	  magic u32 | version u16 | fingerprint u64    (standard header)
//	  seq u64                                      frame sequence number
//	  u32 count | (item u64, delta i64) * count    the update batch
//
// The daemon answers every frame with an ack in the same outer framing:
//
//	u32 length
//	payload:
//	  magic u32 | version u16 | fingerprint u64
//	  seq u64                                      frame being acked
//	  total u64                                    daemon ingest counter
//	  status u16                                   see IngestAck*
//	  u32 msgLen | msg bytes                       error text ("" when OK)
//
// Acks are the durability receipt of the protocol: the daemon writes an
// ack only after the batch is applied under its state lock, so a client
// that has seen ack seq=K knows frames 1..K survive a graceful drain
// (the daemon flushes acks before its final checkpoint). Unacked frames
// are the client's to redeliver, exactly like an unanswered JSON POST.
//
// Each codec has a form that writes into a buffer its caller keeps
// (AppendFramedIngest, ReadFrameInto, DecodeIngestFrame,
// AppendFramedIngestAck), so a stream session puts frame after frame
// through them without allocating; the allocating forms wrap them.

// Frame magics. "gSIF" = ingest frame, "gSIA" = ingest ack.
const (
	IngestFrameMagic uint32 = 0x67534946 // "gSIF"
	IngestAckMagic   uint32 = 0x67534941 // "gSIA"
)

// Ack statuses.
const (
	// IngestAckOK: the frame's batch is applied; Total is the daemon's
	// ingest counter after it.
	IngestAckOK uint16 = 0
	// IngestAckError: the frame was rejected (bad decode, domain
	// violation, fingerprint drift). The connection closes after an
	// error ack; nothing from the offending frame was applied.
	IngestAckError uint16 = 1
	// IngestAckDraining: the daemon is shutting down. Seq/Total report
	// the last applied frame; frames after it must be redelivered to
	// the restarted daemon.
	IngestAckDraining uint16 = 2
)

// MaxIngestFrameBytes is the default cap on one frame's payload. At 16
// bytes per update it admits batches well past any sensible size while
// keeping a hostile length prefix from forcing a huge allocation.
const MaxIngestFrameBytes = 8 << 20

// MaxIngestAckBytes caps an ack payload: header + seq + total + status
// + framed message. Acks are small; 64 KiB leaves generous room for an
// error string.
const MaxIngestAckBytes = 1 << 16

// IngestAck is one decoded ack frame.
type IngestAck struct {
	// Seq is the frame being acknowledged (for IngestAckDraining, the
	// last frame that was applied).
	Seq uint64
	// Total is the daemon's ingest counter after applying Seq.
	Total uint64
	// Status is one of the IngestAck* constants.
	Status uint16
	// Msg is the daemon's error text for non-OK statuses.
	Msg string
}

// WriteFrame writes a length-prefixed payload to w in two writes. The
// stream transport puts a frame on the wire in one write instead, from a
// buffer the framed encoders (AppendFramedIngest, AppendFramedIngestAck)
// fill, prefix included; WriteFrame frames a payload already encoded
// alone.
func WriteFrame(w io.Writer, payload []byte) error {
	if _, err := w.Write(binary.BigEndian.AppendUint32(nil, uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload from r into a new slice:
// ReadFrameInto without a buffer.
func ReadFrame(r io.Reader, maxBytes int) ([]byte, error) { return ReadFrameInto(r, nil, maxBytes) }

// ReadFrameInto reads one length-prefixed payload from r, rejecting
// lengths beyond maxBytes before allocating. The payload lands in buf's
// storage when its capacity holds it and in a new slice of exactly its
// length otherwise (a buf under 4 bytes costs one more, for the prefix).
// io.EOF is returned as-is when the stream ends cleanly between frames
// (so callers can distinguish a clean close from a truncated frame,
// which surfaces as io.ErrUnexpectedEOF).
func ReadFrameInto(r io.Reader, buf []byte, maxBytes int) ([]byte, error) {
	// The prefix is read into buf's storage: a local array would escape
	// through r.Read and cost an allocation a frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	prefix := buf[:4]
	if _, err := io.ReadFull(r, prefix[:1]); err != nil {
		return nil, err // io.EOF here = clean end of stream
	}
	if _, err := io.ReadFull(r, prefix[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	// Compare in uint64 so a hostile length can neither overflow the
	// conversion nor go negative on 32-bit platforms.
	if uint64(n) > uint64(maxBytes) {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte cap", n, maxBytes)
	}
	payload := buf[:0]
	if cap(payload) < int(n) {
		payload = make([]byte, int(n))
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// AppendIngestFrame serializes one ingest frame payload (header, seq,
// batch) into a new slice — the bytes to hand WriteFrame.
func AppendIngestFrame(fingerprint, seq uint64, updates []stream.Update) []byte {
	return AppendFramedIngest(nil, fingerprint, seq, updates)[4:]
}

// AppendFramedIngest appends one whole ingest frame to dst, its u32
// length prefix and then its payload (the bytes AppendIngestFrame
// returns), and returns the extended slice: one Write puts the frame on
// the wire. It allocates only when dst lacks the room.
func AppendFramedIngest(dst []byte, fingerprint, seq uint64, updates []stream.Update) []byte {
	size := 26 + 16*len(updates) // header 14, seq 8, count 4, then 16 per update
	w := Writer{buf: dst}
	w.grow(4 + size)
	w.U32(uint32(size))
	w.Header(IngestFrameMagic, fingerprint)
	w.U64(seq)
	w.U32(uint32(len(updates)))
	tail := w.extend(16 * len(updates))
	for i, u := range updates {
		binary.BigEndian.PutUint64(tail[16*i:], u.Item)
		binary.BigEndian.PutUint64(tail[16*i+8:], uint64(u.Delta))
	}
	return w.buf
}

// UnmarshalIngestFrame decodes an ingest frame payload into a new
// slice: DecodeIngestFrame without a buffer.
func UnmarshalIngestFrame(payload []byte, fingerprint uint64) (seq uint64, updates []stream.Update, err error) {
	return DecodeIngestFrame(nil, payload, fingerprint)
}

// DecodeIngestFrame decodes an ingest frame payload, verifying the
// header against the receiver's Spec fingerprint. The update count is
// checked against the bytes actually present before any allocation, so a
// corrupt count cannot force a huge slice, and the batch is then read in
// one pass over the checked tail. The updates land in dst's storage when
// its capacity holds them and in a new slice of exactly their count
// otherwise; dst's old contents never show. On error it returns no
// updates and leaves dst as it was.
func DecodeIngestFrame(dst []stream.Update, payload []byte, fingerprint uint64) (seq uint64, updates []stream.Update, err error) {
	r := NewReader(payload)
	if err := r.Header(IngestFrameMagic, fingerprint); err != nil {
		return 0, nil, err
	}
	seq = r.U64()
	n := r.U32()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	if uint64(n)*16 > uint64(r.Len()) {
		return 0, nil, fmt.Errorf("wire: truncated ingest frame: %d updates of 16 bytes, %d bytes remain", n, r.Len())
	}
	if extra := r.Len() - 16*int(n); extra != 0 {
		return 0, nil, fmt.Errorf("wire: ingest frame has %d trailing bytes", extra)
	}
	tail := r.take(16 * int(n))
	updates = dst[:0]
	if cap(updates) < int(n) {
		updates = make([]stream.Update, n)
	}
	updates = updates[:n]
	for i := range updates {
		b := tail[16*i : 16*i+16]
		updates[i] = stream.Update{Item: binary.BigEndian.Uint64(b), Delta: int64(binary.BigEndian.Uint64(b[8:]))}
	}
	return seq, updates, nil
}

// AppendIngestAck serializes one ack payload into a new slice.
func AppendIngestAck(fingerprint uint64, ack IngestAck) []byte {
	return AppendFramedIngestAck(nil, fingerprint, ack)[4:]
}

// AppendFramedIngestAck appends one whole ack frame to dst, its u32
// length prefix and then its payload (the bytes AppendIngestAck
// returns), and returns the extended slice. It allocates only when dst
// lacks the room.
func AppendFramedIngestAck(dst []byte, fingerprint uint64, ack IngestAck) []byte {
	size := 36 + len(ack.Msg) // header 14, seq 8, total 8, status 2, framed message
	w := Writer{buf: dst}
	w.grow(4 + size)
	w.U32(uint32(size))
	w.Header(IngestAckMagic, fingerprint)
	w.U64(ack.Seq)
	w.U64(ack.Total)
	w.U16(ack.Status)
	w.U32(uint32(len(ack.Msg)))
	w.buf = append(w.buf, ack.Msg...)
	return w.buf
}

// UnmarshalIngestAck decodes an ack payload, verifying the header
// against the client's Spec fingerprint.
func UnmarshalIngestAck(payload []byte, fingerprint uint64) (IngestAck, error) {
	r := NewReader(payload)
	if err := r.Header(IngestAckMagic, fingerprint); err != nil {
		return IngestAck{}, err
	}
	ack := IngestAck{Seq: r.U64(), Total: r.U64(), Status: r.U16()}
	ack.Msg = string(r.Blob())
	if err := r.Err(); err != nil {
		return IngestAck{}, err
	}
	if r.Len() != 0 {
		return IngestAck{}, fmt.Errorf("wire: ingest ack has %d trailing bytes", r.Len())
	}
	return ack, nil
}
