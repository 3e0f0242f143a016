package universal

// Benches for the Spec/Open layer, beside the Process/Window hot paths:
// BenchmarkOpen and BenchmarkSpecFingerprint price registry construction
// and the pre-merge handshake, and BenchmarkProcessRegistry re-runs the
// BenchmarkProcessSerial workload through the unified Estimator
// interface, so the dispatch path's cost (or an accidental
// de-devirtualization) shows against the concrete type's.

import "testing"

func specBenchSpec(s *Stream) Spec {
	return Spec{Kind: KindOnePass, G: "x^2", Options: processBenchOpts(s)}
}

// BenchmarkOpen is registry construction: normalize the Spec (catalog
// lookup + envelope measurement) and build the one-pass estimator.
func BenchmarkOpen(b *testing.B) {
	s := processBenchStream()
	spec := specBenchSpec(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpecFingerprint is the pre-merge handshake cost: normalize
// and digest the full Spec.
func BenchmarkSpecFingerprint(b *testing.B) {
	s := processBenchStream()
	spec := specBenchSpec(s)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= spec.Fingerprint()
	}
	_ = sink
}

// BenchmarkProcessRegistry is BenchmarkProcessSerial through the
// registry: the same stream and options, but the estimator is resolved
// by Open and driven through Estimator interface dispatch. Compare its
// ns/op with BenchmarkProcessSerial's to see the (absence of) interface
// indirection cost on the ingest hot path.
func BenchmarkProcessRegistry(b *testing.B) {
	s := processBenchStream()
	spec := specBenchSpec(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := Open(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := Process(e, s); err != nil {
			b.Fatal(err)
		}
	}
}
