package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestPusherFlushCloseRaceInFlightAck hammers Flush and Close against a
// deliberately slow daemon so acks land while both calls are blocked in
// their wait loops. The interesting failures here are the ones -race
// and the wait conditions catch: Flush returning before its updates are
// acked, Close racing the ack reader over the pending map, or a lost
// wakeup leaving a waiter hung. Deterministic ground truth at the end:
// every enqueued update acked, and the daemon's count agrees.
func TestPusherFlushCloseRaceInFlightAck(t *testing.T) {
	s := testStream(19)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	srv, c := streamServer(t, spec)
	// Each frame's apply stalls long enough that Flush reliably blocks
	// with frames in flight, and the ack arrives mid-wait.
	srv.streams.applyDelay = time.Millisecond

	p, err := c.NewPusher(context.Background(), PusherConfig{
		MaxBatch: 32, MaxBuffered: 64, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}

	updates := s.Updates()
	var wg sync.WaitGroup
	// Two producers splitting the load, plus a flusher that keeps
	// calling Flush while acks are in flight.
	for i := 0; i < 2; i++ {
		half := updates[i*len(updates)/2 : (i+1)*len(updates)/2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Push(half); err != nil {
				t.Errorf("push: %v", err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := p.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			// Flush's contract: nothing buffered, nothing unacked.
			st := p.Stats()
			if st.Acked != st.Enqueued {
				// Another producer may have enqueued after Flush
				// returned; only acked > enqueued is impossible.
				if st.Acked > st.Enqueued {
					t.Errorf("acked %d > enqueued %d", st.Acked, st.Enqueued)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	// Close while a final age-flush may still be in flight, twice from
	// separate goroutines: Close is documented idempotent.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- p.Close() }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("close: %v", err)
		}
	}

	st := p.Stats()
	if st.Enqueued != uint64(len(updates)) {
		t.Fatalf("enqueued %d, want %d", st.Enqueued, len(updates))
	}
	if st.Acked != st.Enqueued {
		t.Fatalf("acked %d != enqueued %d after Close", st.Acked, st.Enqueued)
	}
	srv.mu.Lock()
	applied := srv.ingests
	srv.mu.Unlock()
	if applied != st.Acked {
		t.Fatalf("daemon applied %d, client acked %d", applied, st.Acked)
	}
}

// TestPusherDrainingRedeliverableCount drains the daemon mid-session
// with frames in flight and updates still buffered, then checks the
// ErrDraining error's redeliverable count against the only number that
// makes redelivery exact: Enqueued - Acked. An overcount redelivers
// duplicates into the aggregate; an undercount loses updates.
func TestPusherDrainingRedeliverableCount(t *testing.T) {
	s := testStream(23)
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	srv, c := streamServer(t, spec)
	// Slow applies keep frames in flight and the buffer backed up when
	// the drain lands mid-batch.
	srv.streams.applyDelay = 10 * time.Millisecond

	updates := s.Updates()
	p, err := c.NewPusher(context.Background(), PusherConfig{
		MaxBatch: 32,
		// Buffer the whole session so Push returns immediately and
		// Enqueued is exact before the drain hits.
		MaxBuffered: len(updates), MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(updates); err != nil {
		t.Fatal(err)
	}

	// Let some acks land so the drain genuinely bisects the session.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Acked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no acks after 5s")
		}
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.DrainStreams(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	closeErr := p.Close()
	st := p.Stats()
	if st.Acked >= uint64(len(updates)) {
		t.Skipf("drain landed after the whole session was acked (acked=%d); nothing to redeliver", st.Acked)
	}
	if closeErr == nil {
		t.Fatalf("drain cut %d updates but Close returned nil", uint64(len(updates))-st.Acked)
	}
	if !errors.Is(closeErr, ErrDraining) {
		t.Fatalf("Close error %v does not wrap ErrDraining", closeErr)
	}
	m := regexp.MustCompile(`(\d+) unacked updates must be redelivered`).FindStringSubmatch(closeErr.Error())
	if m == nil {
		t.Fatalf("error %q does not name the redeliverable count", closeErr)
	}
	lost, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := st.Enqueued - st.Acked; lost != want {
		t.Fatalf("error names %d redeliverable updates; Enqueued-Acked = %d", lost, want)
	}
	// And the durable prefix it implies matches the daemon exactly.
	srv.mu.Lock()
	applied := srv.ingests
	srv.mu.Unlock()
	if applied != st.Acked {
		t.Fatalf("daemon applied %d, client acked %d", applied, st.Acked)
	}
	if uint64(len(updates))-lost != applied {
		t.Fatalf("redelivering %d of %d implies %d durable; daemon has %d",
			lost, len(updates), uint64(len(updates))-lost, applied)
	}
}

// TestPusherRefusalReasonBeatsReset: a daemon that refuses a frame acks
// the refusal and closes with frames unread, which resets the
// connection under the Pusher's next write. The refusal is on the socket
// before the reset, so the session's error must be the daemon's stated
// reason, never the reset — however far behind the ack reader is. The
// fake peer puts it far behind on purpose: it reads a burst of frames,
// answers them all in one write (OK acks, then a refusal of the last)
// and closes at once, while the worker keeps writing single-update
// frames into the reset.
func TestPusherRefusalReasonBeatsReset(t *testing.T) {
	const (
		fp     = 0x5eed
		burst  = 1024 // acks ahead of the refusal, ~45 KB: inside one receive window
		reason = "frame refused by the fake peer"
	)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/config", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(ConfigInfo{Fingerprint: fp})
	})
	mux.HandleFunc("/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close() // with frames still arriving: the reset
		_, _ = rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " + StreamProtocol + "\r\nConnection: Upgrade\r\n\r\n")
		_ = rw.Flush()
		var acks bytes.Buffer
		for seq := uint64(1); seq <= burst+1; seq++ {
			payload, err := wire.ReadFrame(rw, wire.MaxIngestFrameBytes)
			if err != nil {
				t.Errorf("peer read: %v", err)
				return
			}
			got, _, err := wire.UnmarshalIngestFrame(payload, fp)
			if err != nil || got != seq {
				t.Errorf("peer: frame %d (%v), want %d", got, err, seq)
				return
			}
			ack := wire.IngestAck{Seq: seq, Total: seq, Status: wire.IngestAckOK}
			if seq == burst+1 {
				ack = wire.IngestAck{Seq: burst, Total: burst, Status: wire.IngestAckError, Msg: reason}
			}
			_ = wire.WriteFrame(&acks, wire.AppendIngestAck(fp, ack))
		}
		_, _ = rw.Write(acks.Bytes())
		_ = rw.Flush()
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	const frames = 1 << 16
	updates := make([]stream.Update, frames)
	for i := range updates {
		updates[i] = stream.Update{Item: uint64(i), Delta: 1}
	}
	p, err := NewClient(ts.URL, nil).NewPusher(context.Background(), PusherConfig{
		MaxBatch: 1, MaxBuffered: frames, MaxInFlight: frames})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Push(updates)
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err == nil || !strings.Contains(err.Error(), reason) {
		t.Fatalf("session error %v, want the peer's reason %q", err, reason)
	}
}
