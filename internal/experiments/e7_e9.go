package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/mle"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
)

// E7NearlyPeriodic reproduces Appendix D.1: the nearly periodic g_np —
// which the zero-one law does not cover, and whose INDEX reduction fails —
// really is 1-pass tractable. The dedicated algorithm recovers the
// (g_np, λ)-heavy hitter with polylogarithmic space, and its space scales
// polylogarithmically with the domain while the linear baseline grows
// 1024-fold.
func E7NearlyPeriodic(quick bool) Table {
	t := Table{
		ID:     "E7",
		Title:  "g_np heavy hitters in polylog space (Appendix D.1, Prop 54)",
		Header: []string{"domain n", "recall", "weight exact", "space(KB)", "linear(KB)"},
	}
	domains := []uint64{1 << 14, 1 << 18, 1 << 22}
	trials := 10
	if quick {
		domains = []uint64{1 << 14, 1 << 18}
		trials = 6
	}
	g := gfunc.Gnp()
	for _, n := range domains {
		found, exactW := 0, 0
		others := 40
		for seed := uint64(1); seed <= uint64(trials); seed++ {
			rng := util.NewSplitMix64(seed * 5)
			s := stream.New(n)
			want := rng.Uint64n(n)
			s.Add(want, 2*rng.Int63n(1<<20)+1) // odd: iota 0, g_np = 1
			for i := 0; i < others; i++ {
				it := rng.Uint64n(n)
				if it == want {
					continue
				}
				s.Add(it, 1024*(1+rng.Int63n(64))) // iota >= 10
			}
			gh := heavy.NewGnpHeavy(heavy.GnpHeavyConfig{N: n, Lambda: 0.3, Substreams: 64},
				util.NewSplitMix64(seed*31))
			s.Each(func(u stream.Update) { gh.Update(u.Item, u.Delta) })
			cover := gh.Cover()
			if cover.Contains(want) {
				found++
				v := s.Vector()
				for _, e := range cover {
					if e.Item == want &&
						e.Weight == g.Eval(uint64(util.SatAbsInt64(v[want]))) {
						exactW++
					}
				}
			}
		}
		gh := heavy.NewGnpHeavy(heavy.GnpHeavyConfig{N: n, Lambda: 0.3, Substreams: 64},
			util.NewSplitMix64(1))
		linear := float64(n) * 16 / 1024
		t.AddRow(fmt.Sprint(n), fmtPct(float64(found)/float64(trials)),
			fmtPct(float64(exactW)/float64(trials)),
			fmtF(float64(gh.SpaceBytes())/1024), fmtF(linear))
	}
	t.AddNote("expected shape: recall near 100%%, recovered weights exact, space ~log n vs linear ~n")
	return t
}

// E8ApproxMLE reproduces the Section 1.1.1 application: streaming
// approximate maximum likelihood over a parameter grid from a single
// universal sketch, with the guarantee ℓ(θ̂) <= (1+ε) min_θ ℓ(θ).
func E8ApproxMLE(quick bool) Table {
	t := Table{
		ID:     "E8",
		Title:  "Approximate MLE from a universal sketch (§1.1.1)",
		Header: []string{"true θ", "seed", "θ̂ (sketch)", "θ* (exact grid)", "ℓ(θ̂)/ℓ(θ*)", "space(KB)"},
	}
	const n = 1 << 10
	grid := []float64{0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75}
	models := make([]*mle.Model, len(grid))
	for i, q := range grid {
		m, err := mle.NewModel(mle.Geometric{Q: q, Max: 32})
		if err != nil {
			panic(err)
		}
		models[i] = m
	}
	seeds := 5
	if quick {
		seeds = 3
	}
	trueQ := 0.45
	truth := mle.Geometric{Q: trueQ, Max: 32}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		s := stream.IIDSamples(stream.GenConfig{N: n, M: 32, Seed: seed * 7},
			func(rng *util.SplitMix64) int64 { return int64(truth.Sample(rng)) })
		est := mle.NewEstimator(models, core.Options{
			N: n, M: 32, Eps: 0.2, Seed: seed * 11,
			Lambda: 1.0 / 8, WidthFactor: 0.5,
		}, 3)
		est.Process(s)
		idx, _ := est.ArgMin()

		v := s.Vector()
		bestIdx, bestLL := 0, math.Inf(1)
		for i, m := range models {
			if ll := m.ExactLogLikelihood(v, n); ll < bestLL {
				bestIdx, bestLL = i, ll
			}
		}
		chosen := models[idx].ExactLogLikelihood(v, n)
		t.AddRow(fmtF(trueQ), fmt.Sprint(seed), fmtF(grid[idx]), fmtF(grid[bestIdx]),
			fmtF(chosen/bestLL), fmtF(float64(est.SpaceBytes())/1024))
	}
	t.AddNote("guarantee: ℓ(θ̂)/ℓ(θ*) <= 1+ε = 1.2; θ̂ should match or neighbor the exact grid minimizer")
	return t
}

// E9SketchGuarantees validates the substrate guarantees the algorithms
// rely on (§3.1): the CountSketch point-query error bound and the AMS
// (1±ε) F2 approximation, across widths.
func E9SketchGuarantees(quick bool) Table {
	t := Table{
		ID:     "E9",
		Title:  "CountSketch and AMS guarantees (§3.1)",
		Header: []string{"structure", "param", "bound", "observed p99", "F2 rel err"},
	}
	seeds := 5
	if quick {
		seeds = 3
	}
	widths := []uint64{256, 1024, 4096}
	for _, b := range widths {
		var p99s, f2errs []float64
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			s := stream.Zipf(stream.GenConfig{N: 1 << 16, M: 1 << 10, Seed: seed}, 600, 1.0)
			v := s.Vector()
			cs := sketch.NewCountSketch(9, b, util.NewSplitMix64(seed*13))
			s.Each(func(u stream.Update) { cs.Update(u.Item, u.Delta) })
			var errs []float64
			for it, f := range v {
				errs = append(errs, math.Abs(float64(cs.Estimate(it)-f)))
			}
			p99s = append(p99s, util.Quantile(errs, 0.99))
			f2errs = append(f2errs, util.RelErr(cs.EstimateF2(), v.F2()))
		}
		s := stream.Zipf(stream.GenConfig{N: 1 << 16, M: 1 << 10, Seed: 1}, 600, 1.0)
		bound := 2 * math.Sqrt(s.Vector().F2()/float64(b))
		t.AddRow("CountSketch", fmt.Sprintf("b=%d", b), fmtF(bound),
			fmtF(util.MeanFloat64(p99s)), fmtF(util.MeanFloat64(f2errs)))
	}
	for _, reps := range []int{16, 64, 256} {
		var errs []float64
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			s := stream.Zipf(stream.GenConfig{N: 1 << 16, M: 1 << 10, Seed: seed}, 600, 1.0)
			a := sketch.NewAMS(9, reps, util.NewSplitMix64(seed*17))
			s.Each(func(u stream.Update) { a.Update(u.Item, u.Delta) })
			errs = append(errs, util.RelErr(a.EstimateF2(), s.Vector().F2()))
		}
		t.AddRow("AMS", fmt.Sprintf("reps=%d", reps),
			fmtF(math.Sqrt(8/float64(reps))), fmtF(maxOf(errs)), fmtF(util.MeanFloat64(errs)))
	}
	t.AddNote("expected shape: observed p99 <= bound; errors shrink like 1/sqrt(width)")
	return t
}
