package universal

// Benchmark for the sharded kind's chunk-parallel Process. Run it across
// `-cpu` values beside BenchmarkProcessSerial for the Serial/Sharded
// table in EXPERIMENTS.md.

import "testing"

// BenchmarkProcessSharded is the chunk-parallel ingest of the same
// 128k-update stream BenchmarkProcessSerial consumes. The estimator is
// opened ONCE; every Process builds a stack per chunk, sketches the
// chunks concurrently and merges them into the resident one, so this
// measures the whole of it: clone, batched sketching, merge.
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
