package universal

// The BenchmarkDaemonIngest* family prices the daemon ingest transports:
// one iteration pushes the standard 128k-update bench stream into a
// daemon three ways — straight into the server's apply path (the
// no-wire ceiling), over per-batch JSON POSTs to /v1/ingest, and over
// the persistent binary /v1/stream transport through the async Pusher.
// The bar for the stream transport is ns/op within 2x of the in-process
// ceiling: the wire format exists to make the transport disappear from
// the profile.

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/backend"
	"repro/internal/daemon"
)

// ingestBenchServer builds the standard onepass daemon for the bench
// stream.
func ingestBenchServer(b *testing.B) *daemon.Server {
	b.Helper()
	s := processBenchStream()
	srv, err := daemon.NewServer(backend.Spec{
		Kind: backend.KindOnePass, G: "x^2", Options: processBenchOpts(s)})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// BenchmarkDaemonIngestInProcess is the no-wire ceiling: the same
// batches the transports carry, applied straight through the server's
// ingest path (state lock + UpdateBatch), no serialization, no socket.
func BenchmarkDaemonIngestInProcess(b *testing.B) {
	s := processBenchStream()
	srv := ingestBenchServer(b)
	updates := s.Updates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(updates); lo += daemon.DefaultPushBatch {
			hi := lo + daemon.DefaultPushBatch
			if hi > len(updates) {
				hi = len(updates)
			}
			if err := srv.IngestBatch(updates[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchPush measures one full Pusher session per iteration over a live
// loopback daemon: open, push the whole bench stream, flush, close.
func benchPush(b *testing.B, stream bool) {
	b.Helper()
	s := processBenchStream()
	srv := ingestBenchServer(b)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := daemon.NewClient(ts.URL, nil)
	updates := s.Updates()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := c.NewPusher(ctx, daemon.PusherConfig{Stream: stream})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Push(updates); err != nil {
			b.Fatal(err)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
		if st := p.Stats(); st.Acked != uint64(len(updates)) {
			b.Fatalf("acked %d of %d", st.Acked, len(updates))
		}
	}
}

// BenchmarkDaemonIngestJSON is the legacy transport: one POST
// /v1/ingest per 4096-update batch, JSON encode/decode on both ends.
func BenchmarkDaemonIngestJSON(b *testing.B) { benchPush(b, false) }

// BenchmarkDaemonIngestStream is the binary transport: one persistent
// hijacked connection, length-prefixed binary frames, per-frame acks.
func BenchmarkDaemonIngestStream(b *testing.B) { benchPush(b, true) }
