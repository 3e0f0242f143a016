package universal

// The BenchmarkMetrics* family prices the observability surface: Scrape
// is one full Prometheus render of a populated daemon registry — the
// cost an operator's scrape interval pays — and IngestScraped re-runs the
// in-process ingest ceiling with a scraper rendering the registry in a
// tight loop for the whole measurement. The counters themselves are
// lock-free atomics, so the only coupling left is the estimate/space
// GaugeFuncs briefly taking the state lock per render; even this
// adversarial back-to-back scraper (thousands of times any real scrape
// cadence) costs the ceiling well under 2x. The instrumentation cost on the undisturbed hot path is the
// repository benchmark's to show (bench/: daemon.apply against
// backend.update).

import (
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/daemon"
)

// BenchmarkMetricsScrape renders a live daemon's full registry once per
// iteration, after real traffic has populated every counter and
// histogram family.
func BenchmarkMetricsScrape(b *testing.B) {
	s := processBenchStream()
	srv := ingestBenchServer(b)
	if err := srv.IngestBatch(s.Updates()[:4096]); err != nil {
		b.Fatal(err)
	}
	if err := srv.WriteCheckpoint(b.TempDir() + "/ckpt"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.Metrics().WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDaemonIngestScraped is the in-process ingest ceiling with a
// concurrent scraper: a background goroutine renders the registry in a
// tight loop for the whole measurement. Its ns/op staying within noise
// of BenchmarkDaemonIngestInProcess is the proof that scrape traffic
// cannot disturb the ingest hot path.
func BenchmarkDaemonIngestScraped(b *testing.B) {
	s := processBenchStream()
	srv := ingestBenchServer(b)
	updates := s.Updates()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			_ = srv.Metrics().WritePrometheus(io.Discard)
		}
	}()
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
	b.StopTimer()
	stop.Store(true)
	<-done
}
