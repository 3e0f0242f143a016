package workload

import (
	"fmt"
	"math"

	"repro/internal/stream"
	"repro/internal/util"
)

// The generators. Each one forks the seed rng in a fixed order — working
// set first, then per-update draws — so adding draw sites never perturbs
// the working set, and streams stay reproducible across versions of the
// same generator.

// Zipf emits updates whose item popularity follows a Zipfian law with
// exponent Alpha: the rank-r working-set item is drawn with probability
// proportional to 1/r^Alpha. This is the canonical heavy-tailed workload
// — a few keys dominate, a long tail follows — and the regime the
// paper's heavy-hitter-based g-SUM estimators are built for.
type Zipf struct {
	// Alpha is the skew exponent (0 = uniform; 1.1 is the default used by
	// the experiment suite; larger = more skew).
	Alpha float64
}

// Name implements Generator.
func (z Zipf) Name() string { return "zipf" }

// Description implements Generator.
func (z Zipf) Description() string {
	return fmt.Sprintf("Zipfian item popularity (alpha=%.2f): few keys dominate, long tail", z.alpha())
}

func (z Zipf) alpha() float64 {
	if z.Alpha <= 0 {
		return 1.1
	}
	return z.Alpha
}

// Generate implements Generator.
func (z Zipf) Generate(cfg Config) *stream.Stream {
	cfg = cfg.withDefaults()
	rng := util.NewSplitMix64(cfg.Seed)
	items := workingSet(cfg, rng.Fork())
	draw := rng.Fork()
	s := stream.New(cfg.N)
	s.Grow(cfg.Length)
	ranks := newSampler(zipfCDF(len(items), z.alpha()))
	for i := 0; i < cfg.Length; i++ {
		s.Add(items[ranks.draw(draw)], 1)
	}
	return s
}

// zipfCDF precomputes the cumulative distribution of ranks 1..n with
// weight 1/r^alpha.
func zipfCDF(n int, alpha float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), alpha)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return cdf
}

// sampler draws ranks from a cumulative distribution by indexed search
// (Chen and Asau, AIIE Transactions, 1974). The guide table has one slot
// per rank: guide[j] is the first rank whose CDF reaches slot j
// (cdf[r]*len ≥ j, as computed), and a draw u scans up from
// guide[⌊u*len⌋] to the first rank whose CDF reaches u. Rounding is
// monotone, so that slot never starts past the rank, and the scan
// returns exactly the rank a binary search over the CDF returns, in a
// few steps instead of log2(len).
type sampler struct {
	cdf   []float64
	guide []int32
}

func newSampler(cdf []float64) sampler {
	s := sampler{cdf: cdf, guide: make([]int32, len(cdf))}
	last, scale := len(cdf)-1, float64(len(cdf))
	r := 0
	for j := range s.guide {
		for r < last && cdf[r]*scale < float64(j) {
			r++
		}
		s.guide[j] = int32(r)
	}
	return s
}

// draw returns the first rank whose CDF reaches u = rng.Float64(), or
// the last rank if none does.
func (s sampler) draw(rng *util.SplitMix64) int {
	u := rng.Float64()
	last := len(s.cdf) - 1
	r := int(s.guide[min(int(u*float64(len(s.cdf))), last)])
	for r < last && s.cdf[r] < u {
		r++
	}
	return r
}

// Uniform emits updates whose items are uniform over the working set: no
// heavy hitters at all. It is the degenerate case for heavy-hitter-based
// estimators — the entire g-SUM mass sits in the "tail" term — and the
// worst case for duplicate aggregation (batches are almost all distinct
// when the working set exceeds the batch size).
type Uniform struct{}

// Name implements Generator.
func (Uniform) Name() string { return "uniform" }

// Description implements Generator.
func (Uniform) Description() string {
	return "uniform item popularity: no heavy hitters, all mass in the tail"
}

// Generate implements Generator.
func (Uniform) Generate(cfg Config) *stream.Stream {
	cfg = cfg.withDefaults()
	rng := util.NewSplitMix64(cfg.Seed)
	items := workingSet(cfg, rng.Fork())
	draw := rng.Fork()
	s := stream.New(cfg.N)
	s.Grow(cfg.Length)
	for i := 0; i < cfg.Length; i++ {
		s.Add(items[draw.Uint64n(uint64(len(items)))], 1)
	}
	return s
}

// Needle is the needle-in-a-haystack scenario: one dominant key (the
// needle) receives NeedleShare of the stream; the rest is uniform over
// the remaining working set (the haystack). It is the maximum-skew
// heavy-hitter shape — a single hot key against background noise — and
// models a cache stampede or a viral object.
type Needle struct {
	// NeedleShare is the fraction of updates that hit the needle
	// (default 0.5).
	NeedleShare float64
}

// Name implements Generator.
func (Needle) Name() string { return "needle" }

// Description implements Generator.
func (n Needle) Description() string {
	return fmt.Sprintf("needle-in-a-haystack: one key carries %.0f%% of the stream", n.share()*100)
}

func (n Needle) share() float64 {
	if n.NeedleShare <= 0 || n.NeedleShare >= 1 {
		return 0.5
	}
	return n.NeedleShare
}

// Generate implements Generator.
func (n Needle) Generate(cfg Config) *stream.Stream {
	cfg = cfg.withDefaults()
	rng := util.NewSplitMix64(cfg.Seed)
	items := workingSet(cfg, rng.Fork())
	draw := rng.Fork()
	s := stream.New(cfg.N)
	s.Grow(cfg.Length)
	needle, hay := items[0], items[1:]
	if len(hay) == 0 {
		hay = items // degenerate single-item working set
	}
	share := n.share()
	for i := 0; i < cfg.Length; i++ {
		if draw.Float64() < share {
			s.Add(needle, 1)
		} else {
			s.Add(hay[draw.Uint64n(uint64(len(hay)))], 1)
		}
	}
	return s
}

// Bursty emits clustered arrival order: a Zipf-popular item is chosen,
// then a geometric run of consecutive updates to it, then the next item.
// The frequency vector is heavy-tailed like zipf's, but arrival locality
// is extreme — the shape of sensor flushes, retry storms, and per-user
// event bursts. It is the best case for run-length batch collapse and
// the worst case for per-update candidate re-scoring.
type Bursty struct {
	// MeanRun is the mean burst length (default 16).
	MeanRun int
	// Alpha is the burst-owner popularity skew (default 1.1).
	Alpha float64
}

// Name implements Generator.
func (Bursty) Name() string { return "bursty" }

// Description implements Generator.
func (b Bursty) Description() string {
	return fmt.Sprintf("clustered arrivals: geometric runs (mean %d) of Zipf-popular keys", b.meanRun())
}

func (b Bursty) meanRun() int {
	if b.MeanRun <= 0 {
		return 16
	}
	return b.MeanRun
}

func (b Bursty) alpha() float64 {
	if b.Alpha <= 0 {
		return 1.1
	}
	return b.Alpha
}

// Generate implements Generator.
func (b Bursty) Generate(cfg Config) *stream.Stream {
	s, _ := b.generate(cfg)
	return s
}

// generate builds the bursty stream and records where each geometric
// run starts (the draw sequence is identical to the original Generate,
// so existing seeds reproduce byte-identical streams). GenerateTicked
// uses the run boundaries for its burst-aligned time axis.
func (b Bursty) generate(cfg Config) (*stream.Stream, []int) {
	cfg = cfg.withDefaults()
	rng := util.NewSplitMix64(cfg.Seed)
	items := workingSet(cfg, rng.Fork())
	draw := rng.Fork()
	s := stream.New(cfg.N)
	s.Grow(cfg.Length)
	var runStarts []int
	ranks := newSampler(zipfCDF(len(items), b.alpha()))
	// P(continue) keeps the geometric run mean at meanRun.
	cont := 1 - 1/float64(b.meanRun())
	for s.Len() < cfg.Length {
		runStarts = append(runStarts, s.Len())
		it := items[ranks.draw(draw)]
		s.Add(it, 1)
		for s.Len() < cfg.Length && draw.Float64() < cont {
			s.Add(it, 1)
		}
	}
	return s, runStarts
}

// PermutedReplay generates an inner scenario's stream and replays it in
// a seeded random permutation. The frequency vector — and therefore
// every g-SUM and the exact answer — is identical to the inner stream's;
// only arrival order changes. Linear sketches must produce identical
// counters on both (order-insensitivity), so this scenario pins down
// that no optimization quietly became order-sensitive.
type PermutedReplay struct {
	// Inner is the scenario to permute (default Zipf{}).
	Inner Generator
}

// Name implements Generator.
func (PermutedReplay) Name() string { return "permuted" }

// Description implements Generator.
func (p PermutedReplay) Description() string {
	return "seeded random permutation of the " + p.inner().Name() + " stream: same vector, no locality"
}

func (p PermutedReplay) inner() Generator {
	if p.Inner != nil {
		return p.Inner
	}
	return Zipf{}
}

// Generate implements Generator.
func (p PermutedReplay) Generate(cfg Config) *stream.Stream {
	cfg = cfg.withDefaults()
	base := p.inner().Generate(cfg)
	src := base.Updates()
	// Fisher-Yates over a copy, with an rng forked from a distinct tag of
	// the seed so the permutation is independent of the inner generator's
	// draws.
	perm := util.NewSplitMix64(cfg.Seed ^ 0x9e3779b97f4a7c15).Fork()
	shuffled := make([]stream.Update, len(src))
	copy(shuffled, src)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := perm.Uint64n(uint64(i + 1))
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	out := stream.New(base.N())
	out.Grow(len(shuffled))
	for _, u := range shuffled {
		out.Add(u.Item, u.Delta)
	}
	return out
}
