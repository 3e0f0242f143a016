package universal

// Benchmark for the sharded hot path (internal/hotpath). Run it across
// `-cpu` values beside BenchmarkProcessSerial for the Serial/Sharded
// table in EXPERIMENTS.md.

import "testing"

// BenchmarkProcessSharded is the channel-fed concurrent ingest of the
// same 128k-update stream BenchmarkProcessSerial consumes. The
// estimator is opened ONCE: Process neither constructs shards nor
// merges them (merging happens on Estimate), so this measures pure
// ingest throughput — partition, channel handoff, per-shard batched
// sketching.
func BenchmarkProcessSharded(b *testing.B) {
	s := processBenchStream()
	e, err := Open(Spec{Kind: KindSharded, G: "x^2", Workers: 8, Options: processBenchOpts(s)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Process(e, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(s.Len())/b.Elapsed().Seconds(), "updates/s")
}
