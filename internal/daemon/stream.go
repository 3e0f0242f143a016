package daemon

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
)

// The binary streaming ingest path: POST /v1/stream upgrades the HTTP
// connection (hijack + 101 Switching Protocols) to a persistent framed
// byte stream of wire ingest frames (see internal/wire/ingest.go). One
// connection carries the whole push session — no per-batch HTTP
// overhead, no JSON — and every frame is acknowledged only after its
// batch is applied under the state lock, so an ack is a durability
// receipt the graceful-drain path honors: on shutdown the daemon
// finishes the frame in hand, flushes its ack, and only then writes the
// final checkpoint.
//
// Backpressure is structural: the daemon reads, applies, and acks one
// frame at a time per connection, so a client that respects its in-
// flight window (see Pusher) can never flood the daemon — unread frames
// simply back up into the TCP window and the client's Push blocks.
//
// Buffers: a session reads every frame's payload into one buffer,
// decodes its batch into one []stream.Update, and encodes every ack,
// length prefix included, into one small buffer it writes in one Write.
// That reuse is safe because the estimator's UpdateBatch neither keeps
// nor modifies its batch (backend.Estimator). The payload and batch
// buffers are kept only up to streamKeepUpdates updates: a larger frame
// (up to the frame cap, wire.MaxIngestFrameBytes by default) is read and
// decoded into one-off buffers dropped after its apply.

const (
	// StreamProtocol names the upgrade protocol in the HTTP handshake.
	StreamProtocol = "gsum-stream/1"
	// DefaultStreamIdleTimeout bounds how long a stream connection may
	// sit with no complete frame arriving before the daemon closes it;
	// a wedged or vanished client cannot pin a goroutine forever.
	DefaultStreamIdleTimeout = 2 * time.Minute
	// streamKeepUpdates bounds the frame a session keeps buffers for
	// across frames: four default Pusher batches.
	streamKeepUpdates = 4 * DefaultPushBatch
	// refusalDrain bounds how long a refused session reads on after its
	// error ack (see streamLoop's fail).
	refusalDrain = time.Second
)

// streamState tracks the Server's live stream connections so graceful
// drain can flush and close them; http.Server.Shutdown does not wait
// for hijacked connections.
type streamState struct {
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup

	// maxFrameBytes caps one frame's payload (0 = wire.MaxIngestFrameBytes).
	maxFrameBytes int
	// idleTimeout bounds the wait for the next frame (0 = DefaultStreamIdleTimeout).
	idleTimeout time.Duration
	// applyDelay is a test hook: it stalls each frame's apply to make a
	// slow daemon, so backpressure tests can watch the client block.
	applyDelay time.Duration
	// beforeArm is a test hook armIdle calls, holding mu, between reading
	// the draining flag and arming the idle deadline.
	beforeArm func()
}

func (st *streamState) frameCap() int {
	if st.maxFrameBytes > 0 {
		return st.maxFrameBytes
	}
	return wire.MaxIngestFrameBytes
}

func (st *streamState) idle() time.Duration {
	if st.idleTimeout > 0 {
		return st.idleTimeout
	}
	return DefaultStreamIdleTimeout
}

// armIdle arms c's read deadline one idle timeout out, unless the drain
// has begun: then it reports false and leaves the deadline as it is. The
// check and the arming are one section under mu, so a drain's nudge
// (DrainStreams) lands either before it, and is seen, or after it, and
// wakes the read. Were they two, a drain landing between them would have
// its nudge overwritten, and an idle session would keep the drain waiting
// out its context.
func (st *streamState) armIdle(c net.Conn) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.draining {
		return false
	}
	if st.beforeArm != nil {
		st.beforeArm()
	}
	_ = c.SetReadDeadline(time.Now().Add(st.idle()))
	return true
}

// add registers a live connection; it fails once draining has begun.
func (st *streamState) add(c net.Conn) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.draining {
		return false
	}
	if st.conns == nil {
		st.conns = make(map[net.Conn]struct{})
	}
	st.conns[c] = struct{}{}
	st.wg.Add(1)
	return true
}

func (st *streamState) remove(c net.Conn) {
	st.mu.Lock()
	delete(st.conns, c)
	st.mu.Unlock()
	st.wg.Done()
}

// SetStreamLimits tunes the streaming ingest path: maxFrameBytes caps a
// frame payload (0 keeps wire.MaxIngestFrameBytes) and idleTimeout
// bounds the wait between frames (0 keeps DefaultStreamIdleTimeout).
// Call before serving traffic.
func (s *Server) SetStreamLimits(maxFrameBytes int, idleTimeout time.Duration) {
	s.streams.maxFrameBytes = maxFrameBytes
	s.streams.idleTimeout = idleTimeout
}

// DrainStreams begins the streaming drain and waits (bounded by ctx)
// for every live stream connection to wind down: each loop finishes the
// frame it is applying, flushes that ack, sends a final draining ack,
// and closes. New stream connections are refused with 503 once the
// drain begins. Call after http.Server.Shutdown (which does not track
// hijacked connections) and before the final checkpoint, so every acked
// frame is inside it.
func (s *Server) DrainStreams(ctx context.Context) error {
	s.draining.Store(true) // /readyz answers 503 from here on
	st := &s.streams
	st.mu.Lock()
	st.draining = true
	// Nudge blocked reads: each loop wakes, sees draining, and winds
	// down with a final ack instead of waiting out its idle timeout.
	for c := range st.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	st.mu.Unlock()

	done := make(chan struct{})
	go func() {
		st.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Give up waiting and cut the stragglers loose; their unacked
		// frames are the clients' to redeliver.
		st.mu.Lock()
		for c := range st.conns {
			_ = c.Close()
		}
		st.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// handleStream upgrades the connection and runs the frame loop.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported: connection cannot be hijacked"))
		return
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !s.streams.add(conn) {
		_, _ = bufrw.WriteString("HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
		_ = bufrw.Flush()
		_ = conn.Close()
		return
	}
	s.obs.streamConns.Inc()
	s.obs.streamConnsTotal.Inc()
	// The http.Server's Read/WriteTimeout deadlines survive the hijack
	// and would poison a long-lived stream; the loop manages its own.
	_ = conn.SetDeadline(time.Time{})
	_, _ = bufrw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " + StreamProtocol + "\r\nConnection: Upgrade\r\n\r\n")
	if err := bufrw.Flush(); err != nil {
		s.streams.remove(conn)
		_ = conn.Close()
		return
	}
	go s.streamLoop(conn, bufrw)
}

// streamLoop reads, applies, and acks frames until the client closes,
// an error ends the session, or the daemon drains. In steady state it
// allocates nothing (see the buffers in this file's header). It runs on
// a goroutine of its own, where net/http does not recover a panic, so it
// recovers one itself: a panic while applying a frame fails the session
// the way a refused frame does — an error ack naming the panic, counted
// in gsumd_stream_rejected_frames_total — and the daemon serves on. That
// frame is not acked, and its batch may be partly applied, as a panic
// leaves a /v1/ingest batch.
func (s *Server) streamLoop(conn net.Conn, bufrw *bufio.ReadWriter) {
	st := &s.streams
	defer st.remove(conn)
	defer conn.Close()
	defer s.obs.streamConns.Dec()

	var lastSeq, lastTotal uint64
	var payloadBuf, ackBuf []byte
	var batchBuf []stream.Update
	sendAck := func(ack wire.IngestAck) error {
		_ = conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		ackBuf = wire.AppendFramedIngestAck(ackBuf[:0], s.fp, ack)
		_, err := conn.Write(ackBuf)
		return err
	}
	fail := func(err error) {
		// Best effort: tell the client why before closing. The ack
		// carries the last applied frame so the client knows exactly
		// what survives.
		s.obs.streamRejects.Inc()
		if sendAck(wire.IngestAck{Seq: lastSeq, Total: lastTotal,
			Status: wire.IngestAckError, Msg: err.Error()}) != nil {
			return
		}
		// The client may have frames in flight behind the refused one. A
		// close with input unread is answered with a reset, which can
		// discard the ack before the client reads it; so half-close after
		// the ack, and read on (up to a frame cap's worth, for at most
		// refusalDrain) until the client closes its side.
		if cw, ok := conn.(interface{ CloseWrite() error }); ok {
			_ = cw.CloseWrite()
		}
		_ = conn.SetReadDeadline(time.Now().Add(refusalDrain))
		_, _ = io.Copy(io.Discard, io.LimitReader(bufrw, int64(st.frameCap())))
	}
	var current uint64 // the frame in hand
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Errorf("daemon: frame %d: panic: %v (its batch may be partly applied)", current, r))
		}
	}()

	for {
		// A drain must end the session after the frame in hand even if
		// the client keeps sending: the read-deadline nudge only wakes a
		// blocked read, so a loop that stays busy checks the flag here,
		// in the section that arms the idle deadline (armIdle).
		if !st.armIdle(conn) {
			_ = sendAck(wire.IngestAck{Seq: lastSeq, Total: lastTotal,
				Status: wire.IngestAckDraining, Msg: "daemon draining"})
			return
		}
		payload, err := wire.ReadFrameInto(bufrw, payloadBuf, st.frameCap())
		if err != nil {
			st.mu.Lock()
			draining := st.draining
			st.mu.Unlock()
			switch {
			case draining:
				// The drain nudge (read deadline in the past) or a clean
				// close got us here. Every applied frame is already
				// acked; the final draining ack tells the client not to
				// wait for more.
				_ = sendAck(wire.IngestAck{Seq: lastSeq, Total: lastTotal,
					Status: wire.IngestAckDraining, Msg: "daemon draining"})
			case errors.Is(err, io.EOF):
				// Clean end of session.
			default:
				fail(fmt.Errorf("daemon: stream read: %w", err))
			}
			return
		}
		seq, batch, err := wire.DecodeIngestFrame(batchBuf, payload, s.fp)
		if err != nil {
			fail(fmt.Errorf("daemon: stream frame: %w", err))
			return
		}
		if len(batch) <= streamKeepUpdates {
			payloadBuf, batchBuf = payload, batch
		}
		current = seq
		if st.applyDelay > 0 {
			time.Sleep(st.applyDelay)
		}
		total, err := s.apply(transportStream, batch)
		if err != nil {
			fail(fmt.Errorf("daemon: frame %d %w", seq, err))
			return
		}
		lastSeq, lastTotal = seq, total
		// Counted before the ack is written: a client holding the ack must
		// find it in the next scrape. (A session that breaks on this write
		// has counted a receipt nobody got; its client redelivers.)
		s.obs.ackedFrames.Inc()
		s.obs.ackedUpdates.Add(uint64(len(batch)))
		if err := sendAck(wire.IngestAck{Seq: seq, Total: total, Status: wire.IngestAckOK}); err != nil {
			return // client went away; it will redeliver unacked frames
		}
	}
}
