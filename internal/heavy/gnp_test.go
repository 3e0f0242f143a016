package heavy

import (
	"testing"

	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

// gnpStream plants one item whose frequency has a very low ι (odd value,
// g_np = 1) among items with high ι (large powers of two, g_np small), the
// regime where the planted item is a (g_np, λ)-heavy hitter.
func gnpStream(seed uint64, n uint64, others int) (*stream.Stream, uint64) {
	rng := util.NewSplitMix64(seed)
	s := stream.New(n)
	heavy := rng.Uint64n(n)
	s.Add(heavy, 12345) // odd: ι = 0, g_np = 1
	placed := 0
	for placed < others {
		it := rng.Uint64n(n)
		if it == heavy {
			continue
		}
		// frequency divisible by 1024: ι >= 10, g_np <= 2^-10
		s.Add(it, 1024*(1+rng.Int63n(64)))
		placed++
	}
	return s, heavy
}

func TestGnpHeavyRecoversPlanted(t *testing.T) {
	found := 0
	const trials = 10
	for seed := uint64(1); seed <= trials; seed++ {
		s, want := gnpStream(seed, 1<<12, 40)
		gh := NewGnpHeavy(GnpHeavyConfig{N: 1 << 12, Lambda: 0.3}, util.NewSplitMix64(seed*101))
		s.Each(func(u stream.Update) { gh.Update(u.Item, u.Delta) })
		cover := gh.Cover()
		if cover.Contains(want) {
			// the recovered weight must be exactly g_np(v) = 1
			for _, e := range cover {
				if e.Item == want && e.Weight != 1 {
					t.Errorf("seed %d: weight %.4g, want 1", seed, e.Weight)
				}
			}
			found++
		}
	}
	if found < trials*2/3 {
		t.Errorf("planted g_np heavy hitter found in only %d/%d trials", found, trials)
	}
}

func TestGnpHeavyNoFalseIdentities(t *testing.T) {
	// Every reported item must actually exist in the stream with the
	// reported g_np value.
	for seed := uint64(1); seed <= 5; seed++ {
		s, _ := gnpStream(seed, 1<<12, 40)
		v := s.Vector()
		gh := NewGnpHeavy(GnpHeavyConfig{N: 1 << 12, Lambda: 0.3}, util.NewSplitMix64(seed*103))
		s.Each(func(u stream.Update) { gh.Update(u.Item, u.Delta) })
		g := gfunc.Gnp()
		for _, e := range gh.Cover() {
			f, ok := v[e.Item]
			if !ok {
				t.Errorf("seed %d: reported item %d not in stream", seed, e.Item)
				continue
			}
			if want := g.Eval(uint64(util.SatAbsInt64(f))); want != e.Weight {
				t.Errorf("seed %d: item %d weight %.4g, want %.4g", seed, e.Item, e.Weight, want)
			}
		}
	}
}

func TestGnpHeavySpaceIsPolylog(t *testing.T) {
	// Space must grow polylogarithmically with n at fixed λ: going from
	// n = 2^10 to n = 2^20 should grow space by roughly 2x (one extra
	// bit-counter level and trials), nowhere near the 1024x of linear
	// storage.
	a := NewGnpHeavy(GnpHeavyConfig{N: 1 << 10, Lambda: 0.3}, util.NewSplitMix64(1))
	b := NewGnpHeavy(GnpHeavyConfig{N: 1 << 20, Lambda: 0.3}, util.NewSplitMix64(1))
	ratio := float64(b.SpaceBytes()) / float64(a.SpaceBytes())
	if ratio > 8 {
		t.Errorf("space ratio %v for 1024x domain growth; not polylog", ratio)
	}
}
