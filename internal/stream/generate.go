package stream

import (
	"math"

	"repro/internal/util"
)

// GenConfig parameterizes the workload generators. All generators are
// deterministic functions of the Seed.
type GenConfig struct {
	N    uint64 // domain size
	M    int64  // max |frequency| (turnstile bound)
	Seed uint64
}

// Uniform generates a stream in which `items` distinct random items receive
// a uniform random frequency in [1, M], emitted as interleaved unit updates
// mixed with occasional deletions that cancel out, exercising the turnstile
// model. The final vector has `items` nonzero coordinates.
func Uniform(cfg GenConfig, items int) *Stream {
	rng := util.NewSplitMix64(cfg.Seed)
	s := New(cfg.N)
	chosen := sampleDistinct(rng, cfg.N, items)
	for _, it := range chosen {
		f := rng.Int63n(cfg.M) + 1
		// Split the frequency into a few positive updates plus one
		// insert/delete pair so the stream is genuinely turnstile.
		emitSplit(s, rng, it, f)
	}
	return s
}

// Zipf generates a stream whose frequencies follow a Zipfian law with
// exponent alpha: the r-th most frequent of `items` items has frequency
// round(M / r^alpha), clipped to >= 1. Heavy-tailed workloads like this are
// the canonical motivation for heavy-hitter-based g-SUM algorithms.
func Zipf(cfg GenConfig, items int, alpha float64) *Stream {
	rng := util.NewSplitMix64(cfg.Seed)
	s := New(cfg.N)
	chosen := sampleDistinct(rng, cfg.N, items)
	for r, it := range chosen {
		f := int64(math.Round(float64(cfg.M) / math.Pow(float64(r+1), alpha)))
		if f < 1 {
			f = 1
		}
		emitSplit(s, rng, it, f)
	}
	return s
}

// PlantedHeavy generates a stream of `items` light items with frequency
// lightFreq plus one heavy item with frequency heavyFreq. The heavy item's
// identity is returned; experiments use it to measure heavy-hitter recall.
func PlantedHeavy(cfg GenConfig, items int, lightFreq, heavyFreq int64) (*Stream, uint64) {
	rng := util.NewSplitMix64(cfg.Seed)
	s := New(cfg.N)
	chosen := sampleDistinct(rng, cfg.N, items+1)
	heavy := chosen[0]
	emitSplit(s, rng, heavy, heavyFreq)
	for _, it := range chosen[1:] {
		emitSplit(s, rng, it, lightFreq)
	}
	return s, heavy
}

// IIDSamples generates the log-likelihood workload of Section 1.1.1: each
// coordinate i in [0, n) is set to an i.i.d. sample v_i ~ pmf, delivered as
// unit updates in random interleaved order. pmf is given by a sampler
// function returning a value in [0, M].
func IIDSamples(cfg GenConfig, sample func(rng *util.SplitMix64) int64) *Stream {
	rng := util.NewSplitMix64(cfg.Seed)
	s := New(cfg.N)
	type rem struct {
		item uint64
		left int64
	}
	pending := make([]rem, 0, cfg.N)
	for i := uint64(0); i < cfg.N; i++ {
		v := sample(rng)
		if v < 0 {
			v = -v
		}
		if v > 0 {
			pending = append(pending, rem{item: i, left: v})
		}
	}
	// Interleave unit updates round-robin-with-random-skips so that no
	// single-item run dominates, as in a real sample stream.
	for len(pending) > 0 {
		k := int(rng.Uint64n(uint64(len(pending))))
		s.Add(pending[k].item, 1)
		pending[k].left--
		if pending[k].left == 0 {
			pending[k] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
	}
	return s
}

// emitSplit emits frequency f for item it as a handful of updates that sum
// to f, including one canceling +1/-1 pair when f > 2 so the stream is
// turnstile rather than insertion-only. Every prefix keeps |v_it| <= |f|+1.
func emitSplit(s *Stream, rng *util.SplitMix64, it uint64, f int64) {
	if f == 0 {
		return
	}
	neg := f < 0
	a := f
	if neg {
		a = -a
	}
	sign := int64(1)
	if neg {
		sign = -1
	}
	switch {
	case a <= 2:
		for k := int64(0); k < a; k++ {
			s.Add(it, sign)
		}
	default:
		h := a / 2
		s.Add(it, sign*h)
		s.Add(it, sign)  // overshoot by one...
		s.Add(it, -sign) // ...and cancel: exercises deletions
		s.Add(it, sign*(a-h))
	}
	_ = rng
}

// sampleDistinct draws k distinct items from [0, n) deterministically from
// rng. It panics if k > n.
func sampleDistinct(rng *util.SplitMix64, n uint64, k int) []uint64 {
	if uint64(k) > n {
		panic("stream: cannot sample more distinct items than the domain size")
	}
	seen := make(map[uint64]struct{}, k)
	out := make([]uint64, 0, k)
	for len(out) < k {
		it := rng.Uint64n(n)
		if _, ok := seen[it]; ok {
			continue
		}
		seen[it] = struct{}{}
		out = append(out, it)
	}
	return out
}
