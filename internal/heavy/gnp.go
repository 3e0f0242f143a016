package heavy

import (
	"math"

	"repro/internal/gfunc"
	"repro/internal/util"
	"repro/internal/xhash"
)

// GnpHeavy implements the dedicated 1-pass heavy-hitter algorithm of
// Appendix D.1 for the nearly periodic function g_np(x) = 2^{-ι(x)}, where
// ι(x) is the index of the lowest set bit of x.
//
// The structure follows Proposition 54:
//
//   - hash the domain into C = O(λ⁻²) substreams, so that with constant
//     probability no two members of U = {j : ι(v_j) <= ι(v_{j*})} collide
//     (|U| <= 2/λ when j* is a (g_np, λ)-heavy hitter);
//   - in each substream run D = O(log n) independent trials: pairwise
//     independent X_1..X_n ~ Bernoulli(1/2), maintain m = Σ_j X_j v_j and
//     output 2^{-ι(m)};
//   - the trials achieving the maximum 2^{-ι} are exactly those with
//     X_{j*} = 1 (any subset of items with strictly larger ι sums to a
//     value with strictly larger ι, since multiples of 2^{ι*+1} are closed
//     under addition), and the heavy hitter's identity is recovered from
//     the bit pattern: per trial we also maintain one counter per bit
//     position b of the item id restricted to items with bit b set, whose
//     ι equals ι* iff j* participates, i.e. iff bit b of j* is 1.
//
// The space is C * D * (1 + log2 n) counters = poly(λ⁻¹ log n log M),
// which is how a nearly periodic — hence not slow-dropping — function
// evades the Lemma 23 lower bound: the INDEX reduction fails because
// g_np(x + y) = g_np(x) at every period y.
type GnpHeavy struct {
	n     uint64
	c     int
	d     int
	bitsN int
	part  *xhash.Buckets       // item -> substream
	xsel  [][]*xhash.Bernoulli // [substream][trial] -> item selector
	m     [][]int64            // [substream][trial] total selected mass
	mbit  [][][]int64          // [substream][trial][bit] selected mass with id bit set
}

// GnpHeavyConfig configures the Appendix D.1 algorithm.
type GnpHeavyConfig struct {
	N      uint64  // domain size
	Lambda float64 // heaviness λ
	// Trials overrides D = O(log n); 0 means 8 + 4*ceil(log2 n).
	Trials int
	// Substreams overrides C = O(λ⁻²); 0 means ceil(16/λ²).
	Substreams int
}

// NewGnpHeavy returns a fresh instance of the Appendix D.1 algorithm.
func NewGnpHeavy(cfg GnpHeavyConfig, rng *util.SplitMix64) *GnpHeavy {
	if cfg.N == 0 {
		panic("heavy: GnpHeavy needs a positive domain")
	}
	if cfg.Lambda <= 0 || cfg.Lambda > 1 {
		panic("heavy: GnpHeavy lambda must be in (0, 1]")
	}
	c := cfg.Substreams
	if c == 0 {
		c = int(math.Ceil(16 / (cfg.Lambda * cfg.Lambda)))
	}
	bitsN := util.Log2Ceil(cfg.N)
	if bitsN == 0 {
		bitsN = 1
	}
	d := cfg.Trials
	if d == 0 {
		d = 8 + 4*bitsN
	}
	gh := &GnpHeavy{
		n:     cfg.N,
		c:     c,
		d:     d,
		bitsN: bitsN,
		part:  xhash.NewBuckets(2, uint64(c), rng.Fork()),
		xsel:  make([][]*xhash.Bernoulli, c),
		m:     make([][]int64, c),
		mbit:  make([][][]int64, c),
	}
	for s := 0; s < c; s++ {
		gh.xsel[s] = make([]*xhash.Bernoulli, d)
		gh.m[s] = make([]int64, d)
		gh.mbit[s] = make([][]int64, d)
		for t := 0; t < d; t++ {
			gh.xsel[s][t] = xhash.NewBernoulli(2, 1, 2, rng.Fork())
			gh.mbit[s][t] = make([]int64, bitsN)
		}
	}
	return gh
}

// Update feeds one turnstile update.
func (gh *GnpHeavy) Update(item uint64, delta int64) {
	s := gh.part.Hash(item)
	for t := 0; t < gh.d; t++ {
		if !gh.xsel[s][t].Hash(item) {
			continue
		}
		gh.m[s][t] += delta
		for b := 0; b < gh.bitsN; b++ {
			if item&(1<<uint(b)) != 0 {
				gh.mbit[s][t][b] += delta
			}
		}
	}
}

// Cover returns the recovered heavy hitters: per substream, at most one
// (item, weight 2^{-ι*}) pair, validated by re-checking the decoded
// identity against the trial pattern. Frequencies are not recovered (only
// g_np values are), so Freq is reported as 0.
func (gh *GnpHeavy) Cover() Cover {
	var cover Cover
	for s := 0; s < gh.c; s++ {
		if e, ok := gh.decode(s); ok {
			cover = append(cover, e)
		}
	}
	cover.sortByWeight()
	return cover
}

// decode recovers the single minimal-ι item of substream s, if the trial
// statistics are consistent with there being exactly one.
func (gh *GnpHeavy) decode(s int) (Entry, bool) {
	// iota* = minimum ι(m) over trials (64 = "no mass selected").
	iStar := 64
	for t := 0; t < gh.d; t++ {
		if i := gfunc.GnpIota(uint64(abs64(gh.m[s][t]))); i < iStar {
			iStar = i
		}
	}
	if iStar == 64 {
		return Entry{}, false
	}
	// M = trials achieving ι*. With a unique minimal item these are
	// exactly the trials selecting it, so |M| ≈ D/2; a wildly different
	// count signals collision of two minimal-ι items.
	var hits []int
	for t := 0; t < gh.d; t++ {
		if gfunc.GnpIota(uint64(abs64(gh.m[s][t]))) == iStar {
			hits = append(hits, t)
		}
	}
	if len(hits)*5 < gh.d || len(hits)*5 > 4*gh.d {
		return Entry{}, false
	}
	// Decode the identity bit by bit: bit b is set iff the bit-restricted
	// counter also attains ι* (majority vote across the hit trials).
	var id uint64
	for b := 0; b < gh.bitsN; b++ {
		votes := 0
		for _, t := range hits {
			if gfunc.GnpIota(uint64(abs64(gh.mbit[s][t][b]))) == iStar {
				votes++
			}
		}
		if 2*votes > len(hits) {
			id |= 1 << uint(b)
		}
	}
	if id >= gh.n || gh.part.Hash(id) != uint64(s) {
		return Entry{}, false
	}
	// Validate: the decoded item must be selected in exactly the hit
	// trials.
	for t := 0; t < gh.d; t++ {
		sel := gh.xsel[s][t].Hash(id)
		hit := gfunc.GnpIota(uint64(abs64(gh.m[s][t]))) == iStar
		if sel != hit {
			return Entry{}, false
		}
	}
	return Entry{Item: id, Freq: 0, Weight: math.Pow(2, -float64(iStar))}, true
}

// SpaceBytes reports the counter storage.
func (gh *GnpHeavy) SpaceBytes() int {
	return gh.c * gh.d * (1 + gh.bitsN) * 8
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
