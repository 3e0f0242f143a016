package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/stream"
	"repro/internal/util"
)

// E10HeavyHitterRecall verifies Lemma 17/18 empirically: for slow-jumping,
// slow-dropping g, every (g, λ)-heavy hitter is an F2 λ/H(M)-heavy hitter,
// so the CountSketch-based Algorithm 2 finds all of them — recall 1.0 —
// across planted magnitudes. It also reports the measured F2-heaviness
// margin min_heavy v² / ((λ/H) F2), which Lemma 17 predicts to be >= 1.
func E10HeavyHitterRecall(quick bool) Table {
	t := Table{
		ID:     "E10",
		Title:  "Every (g,λ)-heavy hitter is F2-heavy (Lemma 17/18): cover recall",
		Header: []string{"function", "planted |v|", "recall", "F2 margin", "H(M)"},
	}
	// Quadratic-scale functions, where a large planted frequency is
	// actually (g,λ)-heavy. (Sub-polynomially growing functions like
	// e^√log never concentrate enough weight on one item at these scales;
	// their covers are exercised by the E2 estimators instead.)
	funcs := []gfunc.Func{gfunc.F2Func(), gfunc.X2Log(), gfunc.SinLogX2(), gfunc.Power(1.5)}
	mags := []int64{1 << 8, 1 << 10, 1 << 12}
	trials := 8
	if quick {
		funcs = funcs[:2]
		trials = 4
	}
	lambda := 0.1
	for _, g := range funcs {
		h := gfunc.MeasureEnvelope(g, 1<<13).H()
		for _, mag := range mags {
			found, total := 0, 0
			margin := math.Inf(1)
			for seed := uint64(1); seed <= uint64(trials); seed++ {
				s, planted := stream.PlantedHeavy(stream.GenConfig{
					N: 1 << 14, M: 1 << 13, Seed: seed * 3,
				}, 200, mag/16, mag)
				v := s.Vector()
				exact := heavy.ExactHeavy(g, lambda, v)
				if !exact.Contains(planted) {
					continue // not heavy at this magnitude for this g; skip
				}
				total++
				op := heavy.NewOnePass(heavy.OnePassConfig{
					G: g, Lambda: lambda, Eps: 0.25, Delta: 0.1, H: h,
				}, util.NewSplitMix64(seed*41))
				s.Each(func(u stream.Update) { op.Update(u.Item, u.Delta) })
				if op.Cover().Contains(planted) {
					found++
				}
				f2 := v.F2()
				if m := float64(mag) * float64(mag) / (lambda / h * f2); m < margin {
					margin = m
				}
			}
			rec := "n/a"
			if total > 0 {
				rec = fmtPct(float64(found) / float64(total))
			}
			t.AddRow(g.Name(), fmt.Sprint(mag), rec, fmtF(margin), fmtF(h))
		}
	}
	t.AddNote("expected shape: recall 100%% whenever the planted item is (g,λ)-heavy; F2 margin >= 1 (Lemma 17)")
	return t
}

// E11HigherOrder reproduces Section 1.1.4: packing a k-attribute frequency
// matrix into one variable yields an induced g' with extreme local
// variability — the one-pass algorithm degrades on it while the two-pass
// algorithm is unaffected, exactly the regime the paper built the 2-pass
// law for.
func E11HigherOrder(quick bool) Table {
	t := Table{
		ID:     "E11",
		Title:  "Higher-order encoding (§1.1.4): induced g' breaks 1-pass, not 2-pass",
		Header: []string{"packing", "local var g'", "local var x²", "1-pass err", "2-pass err"},
	}
	p, err := newPacking(16, 2)
	if err != nil {
		panic(err)
	}
	induced := p.induced("(d0+4*d1)^2", func(d []uint64) float64 {
		s := float64(d[0] + 4*d[1])
		return s * s
	})
	seeds := 7
	if quick {
		seeds = 4
	}
	var errs1, errs2 []float64
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		s := matrixStream(p, seed)
		exact := core.NewExact(induced)
		exact.Process(s)
		truth := exact.Estimate()

		opts := core.Options{
			N: s.N(), M: int64(p.maxPacked()), Eps: 0.25, Seed: seed * 131,
			Lambda: 1.0 / 16, Envelope: 8,
		}
		one := core.NewOnePass(induced, opts)
		one.Process(s)
		errs1 = append(errs1, util.RelErr(one.Estimate(), truth))

		two := core.NewTwoPass(induced, opts)
		errs2 = append(errs2, util.RelErr(two.Run(s), truth))
	}
	t.AddRow("b=16,k=2",
		fmtF(localVariability(induced, p.maxPacked())),
		fmtF(localVariability(gfunc.F2Func(), p.maxPacked())),
		fmtF(util.MedianFloat64(errs1)), fmtF(util.MedianFloat64(errs2)))
	t.AddNote("expected shape: induced local variability near 1; 2-pass error stays small, 1-pass degrades")
	return t
}

// matrixStream emits a two-attribute frequency matrix as packed updates:
// each item receives attribute-0 and attribute-1 counts in [0, 16). The
// item count exceeds the sketches' candidate capacity, so point queries
// carry genuine error and the induced function's local variability is
// exposed to the pruning step.
func matrixStream(p packing, seed uint64) *stream.Stream {
	rng := util.NewSplitMix64(seed * 977)
	s := stream.New(1 << 13)
	used := make(map[uint64]struct{})
	for i := 0; i < 4000; i++ {
		var it uint64
		for {
			it = rng.Uint64n(1 << 13)
			if _, ok := used[it]; !ok {
				used[it] = struct{}{}
				break
			}
		}
		d0 := 1 + rng.Int63n(15)
		d1 := rng.Int63n(16)
		// Updates arrive per-attribute as the encoding prescribes:
		// attribute j contributes b^j per logical increment.
		for k := int64(0); k < d0; k++ {
			s.Add(it, p.deltaFor(0))
		}
		for k := int64(0); k < d1; k++ {
			s.Add(it, p.deltaFor(1))
		}
	}
	return s
}

// E12LEtaTransform reproduces Theorems 30/31: the transformation
// L_η(g) = g·log^η(1+x) preserves 1-pass tractability of S-normal
// functions, but applied to a nearly periodic function it destroys the
// near-repetition structure and yields an intractable function.
func E12LEtaTransform() Table {
	t := Table{
		ID:     "E12",
		Title:  "L_η transform separates normal from nearly periodic (Thm 30/31)",
		Header: []string{"function", "verdict before", "verdict after L_1", "paper"},
	}
	cfg := gfunc.DefaultCheckConfig()
	cases := []struct {
		g    gfunc.Func
		want gfunc.Tractability // expected 1-pass verdict after L_1
	}{
		{gfunc.F2Func(), gfunc.Tractable},
		{gfunc.F1Func(), gfunc.Tractable},
		{gfunc.X2Log(), gfunc.Tractable},
		{gfunc.ExpSqrtLog(), gfunc.Tractable},
		{gfunc.Gnp(), gfunc.Intractable},
	}
	allOK := true
	for _, c := range cases {
		before := gfunc.Classify(c.g, cfg)
		after := gfunc.Classify(gfunc.LEta(c.g, 1), cfg)
		ok := after.OnePass == c.want
		allOK = allOK && ok
		t.AddRow(c.g.Name(), before.OnePass.String(), after.OnePass.String(), mark(ok))
	}
	t.AddNote("Thm 31: L_η keeps tractable S-normal functions tractable; Thm 30: L_η(g_np) is 1-pass intractable. all match: %v", allOK)
	return t
}
