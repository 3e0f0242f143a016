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

// WriteFrame writes a length-prefixed payload to w. It is the outer
// framing shared by ingest frames and acks.
func WriteFrame(w io.Writer, payload []byte) error {
	if _, err := w.Write(binary.BigEndian.AppendUint32(nil, uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload from r, rejecting lengths
// beyond maxBytes before allocating. io.EOF is returned as-is when the
// stream ends cleanly between frames (so callers can distinguish a
// clean close from a truncated frame, which surfaces as
// io.ErrUnexpectedEOF).
func ReadFrame(r io.Reader, maxBytes int) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:1]); err != nil {
		return nil, err // io.EOF here = clean end of stream
	}
	if _, err := io.ReadFull(r, lenBuf[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := uint32(lenBuf[0])<<24 | uint32(lenBuf[1])<<16 | uint32(lenBuf[2])<<8 | uint32(lenBuf[3])
	// Compare in uint64 so a hostile length can neither overflow the
	// conversion nor go negative on 32-bit platforms.
	if uint64(n) > uint64(maxBytes) {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte cap", n, maxBytes)
	}
	payload := make([]byte, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// AppendIngestFrame serializes one ingest frame payload (header, seq,
// batch) — the bytes to hand WriteFrame.
func AppendIngestFrame(fingerprint, seq uint64, updates []stream.Update) []byte {
	var w Writer
	w.grow(26 + 16*len(updates)) // header 14, seq 8, count 4, then 16 per update
	w.Header(IngestFrameMagic, fingerprint)
	w.U64(seq)
	w.U32(uint32(len(updates)))
	tail := w.extend(16 * len(updates))
	for i, u := range updates {
		binary.BigEndian.PutUint64(tail[16*i:], u.Item)
		binary.BigEndian.PutUint64(tail[16*i+8:], uint64(u.Delta))
	}
	return w.Bytes()
}

// UnmarshalIngestFrame decodes an ingest frame payload, verifying the
// header against the receiver's Spec fingerprint. The update count is
// validated against the bytes actually present before any allocation,
// so a corrupt count cannot force a huge slice.
func UnmarshalIngestFrame(payload []byte, fingerprint uint64) (seq uint64, updates []stream.Update, err error) {
	r := NewReader(payload)
	if err := r.Header(IngestFrameMagic, fingerprint); err != nil {
		return 0, nil, err
	}
	seq = r.U64()
	n := r.U32()
	if r.Err() == nil && uint64(n)*16 > uint64(r.Len()) {
		return 0, nil, fmt.Errorf("wire: truncated ingest frame: %d updates of 16 bytes, %d bytes remain", n, r.Len())
	}
	if r.Err() == nil {
		updates = make([]stream.Update, n)
		for i := range updates {
			updates[i] = stream.Update{Item: r.U64(), Delta: r.I64()}
		}
	}
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	if r.Len() != 0 {
		return 0, nil, fmt.Errorf("wire: ingest frame has %d trailing bytes", r.Len())
	}
	return seq, updates, nil
}

// AppendIngestAck serializes one ack payload.
func AppendIngestAck(fingerprint uint64, ack IngestAck) []byte {
	var w Writer
	w.grow(36 + len(ack.Msg)) // header 14, seq 8, total 8, status 2, framed message
	w.Header(IngestAckMagic, fingerprint)
	w.U64(ack.Seq)
	w.U64(ack.Total)
	w.U16(ack.Status)
	w.Blob([]byte(ack.Msg))
	return w.Bytes()
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
