package universal

// Benchmarks for the sharded hot path (internal/hotpath) and the
// multi-lane field arithmetic beneath it. BenchmarkProcessSharded joins
// the BenchmarkProcess* regression gate (BENCH_baseline.json via
// scripts/benchdiff); run it across `-cpu` values for the
// Serial/Sharded table in EXPERIMENTS.md.

import (
	"testing"

	"repro/internal/xhash"
)

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

// gfChainLen is the dependent-chain length per iteration of the field
// arithmetic benches: long enough that one iteration is microseconds
// (stable under -benchtime 3x), matched between the scalar and lane
// variants so ns/op divides apples to apples — the lanes bench does 4x
// the multiplies per op and should take well under 4x the time.
const gfChainLen = 4096

// BenchmarkGFMulModScalar is the baseline: one dependent chain, so the
// loop runs at the LATENCY of a Mersenne multiply.
func BenchmarkGFMulModScalar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		acc := uint64(0x243f6a8885a308d3)
		for j := 0; j < gfChainLen; j++ {
			acc = xhash.MulMod(acc, 0x13198a2e03707344)
		}
		sinkU64 = acc
	}
}

// BenchmarkGFMulModLanes runs four independent chains through the
// unrolled 4-lane multiply: the out-of-order core overlaps them, so
// per-multiply cost approaches the multiplier's THROUGHPUT instead.
func BenchmarkGFMulModLanes(b *testing.B) {
	x := [4]uint64{0x452821e638d01377, 0xbe5466cf34e90c6c, 0xc0ac29b7c97c50dd, 0x3f84d5b5b5470917}
	for i := 0; i < b.N; i++ {
		acc := [4]uint64{0x243f6a8885a308d3, 0x13198a2e03707344, 0xa4093822299f31d0, 0x082efa98ec4e6c89}
		for j := 0; j < gfChainLen; j++ {
			xhash.MulMod4(&acc, &acc, &x)
		}
		sinkU64 = acc[0] ^ acc[1] ^ acc[2] ^ acc[3]
	}
}

// sinkU64 defeats dead-code elimination in the arithmetic benches.
var sinkU64 uint64
