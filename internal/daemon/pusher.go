package daemon

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Pusher defaults.
const (
	// DefaultPushBatch is the updates-per-frame batch size.
	DefaultPushBatch = 4096
	// DefaultMaxInFlight bounds unacked frames.
	DefaultMaxInFlight = 4
	// DefaultFlushEvery bounds how long a partial batch may age before
	// it is sent anyway.
	DefaultFlushEvery = 100 * time.Millisecond
)

// ackTimeout bounds how long a Pusher waits for an ack while frames are in
// flight, and a write: a daemon that stops acking surfaces as an error
// instead of a hang.
const ackTimeout = time.Minute

// ErrDraining is wrapped by Pusher errors when the daemon announced a
// graceful drain mid-stream, or when a Push came after a drain that found
// nothing unacked. Every frame acked before it is durable (the daemon
// checkpoints after flushing acks); the Pusher's unsent and unacked
// updates are the caller's to redeliver after the restart.
var ErrDraining = errors.New("daemon draining")

// PusherConfig tunes an asynchronous Pusher.
type PusherConfig struct {
	// Deprecated: ignored; every Pusher streams. bench/ sets it; ROADMAP
	// item 3(a) deletes it.
	Stream bool
	// MaxBatch is the updates per frame (0 = DefaultPushBatch).
	MaxBatch int
	// MaxBuffered caps the queue in updates; Push blocks when full
	// (0 = 4 * MaxBatch). It never drops.
	MaxBuffered int
	// MaxInFlight bounds unacked stream frames (0 = DefaultMaxInFlight).
	MaxInFlight int
	// FlushEvery bounds a partial batch's age (0 = DefaultFlushEvery).
	FlushEvery time.Duration
	// Metrics, when non-nil, registers this Pusher's client-side
	// instruments (queue depth, in-flight frames, session counters,
	// flushes by cause — all gsum_pusher_*) against the given registry.
	// The values are read from the session state at scrape time, so the
	// push hot path gains no extra work. Labels distinguishes several
	// Pushers sharing one registry; registering two with an identical
	// label set panics (metrics.Registry duplicate detection).
	Metrics *metrics.Registry
	// Labels is the static label set for the instruments registered via
	// Metrics (e.g. one worker="..." label per push session).
	Labels []metrics.Label
}

func (cfg PusherConfig) withDefaults() PusherConfig {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultPushBatch
	}
	if cfg.MaxBuffered <= 0 {
		cfg.MaxBuffered = 4 * cfg.MaxBatch
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = DefaultFlushEvery
	}
	return cfg
}

// PusherStats counts a Pusher's progress, in updates except Frames.
type PusherStats struct {
	// Enqueued is how many updates Push has accepted.
	Enqueued uint64
	// Sent is how many updates have left the queue for the connection.
	Sent uint64
	// Acked is how many updates the daemon has acknowledged applying.
	Acked uint64
	// Frames is how many frames carried them.
	Frames uint64
	// Total is the daemon's ingest counter from the last ack.
	Total uint64
	// FlushSize / FlushAge / FlushRequest / FlushClose count why each
	// frame left the queue: the batch filled (size), the FlushEvery
	// timer fired on a partial batch (age), an explicit Flush call
	// (request), or the final drain inside Close (close).
	FlushSize, FlushAge, FlushRequest, FlushClose uint64
}

// Pusher is an asynchronous, batching push session against one daemon
// over one /v1/stream connection: Push enqueues into a bounded buffer
// and returns immediately (blocking only when the buffer is full —
// backpressure, never drops), a background worker sends batches as
// frames by size and age, and Close flushes whatever remains and waits
// for every ack. Errors are sticky: the first connection or daemon
// error fails all subsequent calls, and Close reports it. A Pusher is
// safe for concurrent Push calls.
//
// An ack is a durability receipt (see /v1/stream); Stats().Acked is
// exactly the prefix of the session that survives a daemon drain.
//
// Buffers: Push copies its updates into the queue (buf), so the caller
// owns its slice again when Push returns. The worker alone writes the
// frame buffer (frame): it encodes a batch from the queue straight into
// it, length prefix included, and sends it with one Write. The ack
// reader keeps one small buffer of its own. In steady state none of the
// three allocates. A Flush that finds the session drained drops the
// queue and the frame buffer, so an idle Pusher holds no queue memory.
type Pusher struct {
	cfg PusherConfig
	sc  *streamConn
	fp  uint64

	mu        sync.Mutex
	cond      *sync.Cond
	buf       []stream.Update // the queue, at most MaxBuffered updates
	frame     []byte          // the worker's encoded frame, reused
	flushReq  bool
	flushDue  bool // age timer fired
	closed    bool
	err       error
	draining  bool
	timer     *time.Timer
	nextSeq   uint64
	unacked   int            // updates taken from buf, not yet acked
	pending   map[uint64]int // in-flight seq -> update count
	stats     PusherStats
	workerEnd chan struct{}
	readerEnd chan struct{}
}

// NewPusher opens an asynchronous push session against the daemon this
// client points at. ctx governs the whole session: dialing and
// cancellation (a canceled ctx fails the session with ctx's error). The
// daemon's Spec fingerprint is fetched via /v1/config first, so a
// misconfigured client fails here, not mid-stream.
func (c *Client) NewPusher(ctx context.Context, cfg PusherConfig) (*Pusher, error) {
	info, err := c.ConfigContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("daemon: stream handshake: %w", err)
	}
	sc, err := c.dialStream(ctx)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	p := &Pusher{cfg: cfg, sc: sc, fp: info.Fingerprint, pending: make(map[uint64]int),
		workerEnd: make(chan struct{}), readerEnd: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	if cfg.Metrics != nil {
		p.registerMetrics(cfg.Metrics, cfg.Labels)
	}
	go p.readAcks()
	go p.worker()
	// A canceled session ctx wakes every blocked Push/Flush.
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				p.fail(ctx.Err())
			case <-p.workerEnd:
			}
		}()
	}
	return p, nil
}

// registerMetrics mounts the session's client-side instruments. Every
// value is read from the session state under p.mu at scrape time —
// GaugeFuncs, so Push/worker gain no per-update instrument work.
func (p *Pusher) registerMetrics(reg *metrics.Registry, labels []metrics.Label) {
	read := func(f func() float64) func() float64 {
		return func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return f()
		}
	}
	reg.GaugeFunc("gsum_pusher_queue_depth",
		"updates waiting in the Pusher's bounded buffer", read(func() float64 {
			return float64(len(p.buf))
		}), labels...)
	reg.GaugeFunc("gsum_pusher_inflight_frames",
		"stream frames sent but not yet acked", read(func() float64 {
			return float64(len(p.pending))
		}), labels...)
	reg.GaugeFunc("gsum_pusher_enqueued_updates",
		"updates accepted by Push this session", read(func() float64 {
			return float64(p.stats.Enqueued)
		}), labels...)
	reg.GaugeFunc("gsum_pusher_acked_updates",
		"updates the daemon has acknowledged applying this session", read(func() float64 {
			return float64(p.stats.Acked)
		}), labels...)
	reg.GaugeFunc("gsum_pusher_frames",
		"frames sent this session", read(func() float64 {
			return float64(p.stats.Frames)
		}), labels...)
	for _, c := range []struct {
		cause string
		field *uint64
	}{
		{"size", &p.stats.FlushSize},
		{"age", &p.stats.FlushAge},
		{"request", &p.stats.FlushRequest},
		{"close", &p.stats.FlushClose},
	} {
		field := c.field
		reg.GaugeFunc("gsum_pusher_flushes",
			"batches that left the queue, by cause (size, age, request, close)",
			read(func() float64 { return float64(*field) }),
			append(append([]metrics.Label(nil), labels...), metrics.Label{Key: "cause", Value: c.cause})...)
	}
}

// fail records the first error and wakes everyone.
func (p *Pusher) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Err returns the sticky session error, if any.
func (p *Pusher) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Stats returns a snapshot of the session counters.
func (p *Pusher) Stats() PusherStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Push enqueues updates, blocking only while the bounded buffer is full
// (backpressure: a slow daemon slows the producer; nothing is dropped).
// It returns the sticky session error, under which nothing further is
// enqueued. A Push after a drain the daemon announced while nothing was
// unacked sends nothing: it records a sticky ErrDraining-wrapped error
// naming how many of its updates were not sent, which Close reports.
func (p *Pusher) Push(updates []stream.Update) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < len(updates); {
		for p.err == nil && !p.closed && len(p.buf) >= p.cfg.MaxBuffered {
			p.cond.Wait()
		}
		if p.err == nil && p.closed && p.draining {
			p.err = fmt.Errorf("daemon: %w after acking %d updates; %d updates pushed after the drain were not sent",
				ErrDraining, p.stats.Acked, len(updates)-i)
		}
		if p.err != nil {
			return p.err
		}
		if p.closed {
			return fmt.Errorf("daemon: push on closed Pusher")
		}
		if len(p.buf) == 0 {
			p.armTimerLocked()
		}
		if p.buf == nil {
			// A drained Flush dropped the queue: size it for this Push.
			p.buf = make([]stream.Update, 0, min(len(updates)-i, p.cfg.MaxBuffered))
		}
		k := min(len(updates)-i, p.cfg.MaxBuffered-len(p.buf))
		p.buf = append(p.buf, updates[i:i+k]...)
		p.stats.Enqueued += uint64(k)
		i += k
		if len(p.buf) >= p.cfg.MaxBatch {
			p.cond.Broadcast()
		}
	}
	return p.err
}

// armTimerLocked (re)arms the age flush for a newly started batch.
func (p *Pusher) armTimerLocked() {
	p.flushDue = false
	if p.timer == nil {
		p.timer = time.AfterFunc(p.cfg.FlushEvery, func() {
			p.mu.Lock()
			p.flushDue = true
			p.cond.Broadcast()
			p.mu.Unlock()
		})
		return
	}
	p.timer.Reset(p.cfg.FlushEvery)
}

// Flush sends everything buffered and waits until the daemon has acked
// it all, then reports the sticky error if any. A Flush that finds the
// session drained drops the queue and the frame buffer: the next Push
// allocates them again.
func (p *Pusher) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushReq = true
	p.cond.Broadcast()
	for p.err == nil && (len(p.buf) > 0 || p.unacked > 0) {
		p.cond.Wait()
	}
	if p.err == nil {
		p.buf, p.frame = nil, nil
	}
	return p.err
}

// Close flushes, tears the session down, and reports the sticky error.
// A drain announced by the daemon after everything was acked is a clean
// close, unless a later Push found the session drained (see Push); with
// updates still unacked it surfaces as an ErrDraining-wrapped error
// naming how much must be redelivered. Close is idempotent.
func (p *Pusher) Close() error {
	flushErr := p.Flush()
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		if p.timer != nil {
			p.timer.Stop()
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	<-p.workerEnd
	_ = p.sc.conn.Close()
	<-p.readerEnd
	p.mu.Lock()
	defer p.mu.Unlock()
	if flushErr != nil {
		return flushErr
	}
	return p.err
}

// worker drains the queue into frames: full batches immediately,
// partial ones on age, explicit Flush, or Close. A batch waits in the
// queue for a slot in the in-flight window; then, under p.mu, the worker
// encodes it from the queue into p.frame and takes it off, and outside
// the lock it writes the frame. Nothing else writes p.frame, and the
// worker encodes the next frame only after the last Write returned.
func (p *Pusher) worker() {
	defer close(p.workerEnd)
	for {
		p.mu.Lock()
		for p.err == nil && !(p.closed && len(p.buf) == 0) &&
			!(p.batchReadyLocked() && len(p.pending) < p.cfg.MaxInFlight) {
			if len(p.buf) == 0 && p.flushReq && p.unacked == 0 {
				p.flushReq = false
				p.cond.Broadcast()
			}
			p.cond.Wait()
		}
		if p.err != nil || len(p.buf) == 0 {
			p.mu.Unlock()
			return
		}
		// Classify why this batch is leaving the queue, for the
		// flushes-by-cause stats: a full batch wins over any pending
		// flush request, close over request, request over the age timer.
		switch {
		case len(p.buf) >= p.cfg.MaxBatch:
			p.stats.FlushSize++
		case p.closed:
			p.stats.FlushClose++
		case p.flushReq:
			p.stats.FlushRequest++
		default:
			p.stats.FlushAge++
		}
		n := min(len(p.buf), p.cfg.MaxBatch)
		p.nextSeq++
		seq := p.nextSeq
		p.frame = wire.AppendFramedIngest(p.frame[:0], p.fp, seq, p.buf[:n])
		frame := p.frame
		rest := copy(p.buf, p.buf[n:])
		p.buf = p.buf[:rest]
		if len(p.buf) > 0 {
			p.armTimerLocked()
		} else {
			p.flushDue = false
		}
		p.unacked += n
		p.stats.Sent += uint64(n)
		p.stats.Frames++
		p.pending[seq] = n
		p.cond.Broadcast() // the queue has room again
		p.mu.Unlock()
		if err := p.sendFrame(frame); err != nil {
			p.failSend(err)
			return
		}
	}
}

// batchReadyLocked reports whether the queue holds a batch to send: a
// full one, or a partial one the age timer, a Flush or Close asks for.
func (p *Pusher) batchReadyLocked() bool {
	return len(p.buf) >= p.cfg.MaxBatch ||
		len(p.buf) > 0 && (p.flushDue || p.flushReq || p.closed)
}

// failSend records a send error once the ack reader has had its say. A
// daemon that refuses a frame acks the refusal and closes with later
// frames unread, which resets the connection under the next write; the
// refusal is on the socket before the reset, so waiting for the reader
// (bounded by ackTimeout) lets the daemon's stated reason win.
func (p *Pusher) failSend(err error) {
	t := time.NewTimer(ackTimeout)
	defer t.Stop()
	select {
	case <-p.readerEnd:
	case <-t.C:
	}
	p.fail(err)
}

// sendFrame writes one encoded frame, length prefix included, in one
// Write, and refreshes the ack-stall deadline.
func (p *Pusher) sendFrame(frame []byte) error {
	_ = p.sc.conn.SetWriteDeadline(time.Now().Add(ackTimeout))
	if _, err := p.sc.conn.Write(frame); err != nil {
		return fmt.Errorf("daemon: stream send: %w", err)
	}
	return nil
}

// readAcks consumes the daemon's ack stream, releasing window slots and
// waking Flush. The read deadline doubles as a stall detector: while
// frames are in flight, no ack within ackTimeout is an error; while
// idle, the deadline just re-arms. Every ack is read into one reused
// buffer.
func (p *Pusher) readAcks() {
	defer close(p.readerEnd)
	var buf []byte
	for {
		_ = p.sc.conn.SetReadDeadline(time.Now().Add(ackTimeout))
		payload, err := wire.ReadFrameInto(p.sc.br, buf, wire.MaxIngestAckBytes)
		if err != nil {
			p.mu.Lock()
			inflight := len(p.pending)
			closed := p.closed
			p.mu.Unlock()
			if isTimeout(err) && inflight == 0 && !closed {
				continue // idle; re-arm
			}
			if !closed {
				p.fail(fmt.Errorf("daemon: stream ack: %w", err))
			}
			return
		}
		buf = payload
		ack, err := wire.UnmarshalIngestAck(payload, p.fp)
		if err != nil {
			p.fail(fmt.Errorf("daemon: stream ack: %w", err))
			return
		}
		switch ack.Status {
		case wire.IngestAckOK:
			p.mu.Lock()
			if n, ok := p.pending[ack.Seq]; ok {
				delete(p.pending, ack.Seq)
				p.unacked -= n
				p.stats.Acked += uint64(n)
			}
			p.stats.Total = ack.Total
			p.cond.Broadcast()
			p.mu.Unlock()
		case wire.IngestAckDraining:
			p.mu.Lock()
			// Everything up to ack.Seq survived; anything after it (and
			// the buffer) must be redelivered after the restart.
			for seq, n := range p.pending {
				if seq <= ack.Seq {
					delete(p.pending, seq)
					p.unacked -= n
					p.stats.Acked += uint64(n)
				}
			}
			p.stats.Total = ack.Total
			p.draining = true
			lost := p.unacked + len(p.buf)
			if p.err == nil {
				if lost == 0 {
					// Clean cut: every update we sent is durable. Treat
					// as end-of-session, not an error, unless more work
					// arrives: a later Push records the drain as the
					// session's error.
					p.closed = true
				} else {
					p.err = fmt.Errorf("daemon: %w after acking %d updates; %d unacked updates must be redelivered: %s",
						ErrDraining, p.stats.Acked, lost, ack.Msg)
				}
			}
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		default:
			// The daemon's error ack carries the last frame it applied, not
			// the one it refused.
			p.fail(fmt.Errorf("daemon: stream closed after frame %d: %s", ack.Seq, ack.Msg))
			return
		}
	}
}

func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// streamConn is the client end of one upgraded /v1/stream connection:
// frames go out on conn directly, acks come in through br.
type streamConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// dialAddr is the host:port a stream dial connects to: the URL's own
// port, or 80 when it names none. An IPv6 literal keeps its brackets.
func dialAddr(u *url.URL) string {
	if u.Port() != "" {
		return u.Host
	}
	return net.JoinHostPort(u.Hostname(), "80")
}

// dialStream dials the daemon and upgrades the connection to the
// framed streaming protocol (POST /v1/stream, 101 Switching
// Protocols). The handshake is bounded by ctx (or the client timeout);
// the resulting connection has no deadline — the Pusher manages its
// own.
func (c *Client) dialStream(ctx context.Context) (*streamConn, error) {
	u, err := url.Parse(c.base)
	if err != nil {
		return nil, fmt.Errorf("daemon: stream dial: %w", err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("daemon: the stream transport needs an http base URL, got %q", c.base)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", dialAddr(u))
	if err != nil {
		return nil, fmt.Errorf("daemon: stream dial: %w", err)
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	} else {
		_ = conn.SetDeadline(time.Now().Add(c.timeout))
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/stream", nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", StreamProtocol)
	if err := req.Write(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("daemon: stream handshake: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("daemon: stream handshake: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		err := fmt.Errorf("daemon: stream refused: %s", resp.Status)
		if resp.StatusCode == http.StatusServiceUnavailable {
			err = fmt.Errorf("daemon: stream refused: %s (daemon draining)", resp.Status)
		}
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return &streamConn{conn: conn, br: br}, nil
}
