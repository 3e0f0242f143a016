package experiments

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/gfunc"
	"repro/internal/util"
)

// E13DiscreteCounting reproduces Appendix D.4 / Theorem 57: in the
// discretized model GD, nearly periodic functions are vanishingly rare.
// The table reports Monte-Carlo counts of Bn-like and Tn functions among
// random members of GD, alongside the analytic log2 bound on |Bn|/|Tn|,
// which decreases linearly in M once log log n clears the constant.
func E13DiscreteCounting(quick bool) Table {
	t := Table{
		ID:     "E13",
		Title:  "Counting nearly periodic functions in the discretized model (Thm 57)",
		Header: []string{"M", "M'", "log n", "samples", "Bn hits", "Tn hits", "log2 bound |Bn|/|Tn|"},
	}
	samples := 4000
	if quick {
		samples = 1500
	}
	rng := util.NewSplitMix64(271828)
	type cfg struct {
		m    int
		mp   uint64
		logN float64
	}
	// Two regimes: small log n keeps the (log n)^8 drop threshold below
	// M', so Bn membership is genuinely possible (and still never
	// observed); moderate log n makes the Tn floor M'/log n lenient, so
	// the Lemma 59 family is visibly large.
	cases := []cfg{
		{8, 64, 1.5},
		{12, 64, 1.5},
		{16, 64, 1.5},
		{8, 64, 4},
		{16, 64, 4},
	}
	for _, c := range cases {
		bn, tn := countDiscrete(c.m, c.mp, c.logN, samples, rng.Fork())
		t.AddRow(fmt.Sprint(c.m), fmt.Sprint(c.mp), fmtF(c.logN),
			fmt.Sprint(samples), fmt.Sprint(bn), fmt.Sprint(tn), "(sampled)")
	}
	// The analytic bound at theorem scale (too large to sample).
	for _, m := range []int{64, 256, 1024} {
		t.AddRow(fmt.Sprint(m), "2^20", "64", "-", "-", "-",
			fmtF(theoremBoundLogRatio(m, 1<<20, 64)))
	}
	t.AddNote("expected shape: Bn hits vanish as M grows (a handful at M=8, none beyond), Tn hits plentiful at moderate log n; the analytic exponent decreases linearly in M (2^{-Ω(M log log n)})")
	return t
}

// E14MetricInstability reproduces Appendix D.5 / Theorem 64 and
// Proposition 63: nearly periodic functions are Θ-unstable (a δ-sized
// perturbation turns g_np 1-pass intractable), while tractable normal
// functions are Θ-stable (bounded multiplicative perturbations keep
// slow-jumping and slow-dropping).
func E14MetricInstability() Table {
	t := Table{
		ID:     "E14",
		Title:  "Θ-metric stability: normal stable, nearly periodic unstable (Prop 63 / Thm 64)",
		Header: []string{"function", "perturbation", "Θ(g,h)", "verdict before", "verdict after"},
	}
	cfg := gfunc.DefaultCheckConfig()

	// Theorem 64: δ-perturb g_np at its periods.
	gnp := gfunc.Gnp()
	for _, delta := range []float64{0.25, 0.5, 1.0} {
		h := gfunc.PerturbNearlyPeriodic(gnp, delta, cfg)
		before := gfunc.Classify(gnp, cfg)
		after := gfunc.Classify(h, cfg)
		t.AddRow(gnp.Name(), fmt.Sprintf("δ=%.2f at periods", delta),
			fmtF(gfunc.Theta(gnp, h, cfg.M)),
			before.OnePass.String(), after.OnePass.String())
	}

	// Proposition 63: bounded multiplicative noise on tractable g.
	g := gfunc.F2Func()
	h := gfunc.New("x^2*(1+0.3sin x)", func(x uint64) float64 {
		if x == 0 {
			return 0
		}
		fx := float64(x)
		return fx * fx * (1 + 0.3*math.Sin(fx)) / (1 + 0.3*math.Sin(1))
	})
	before := gfunc.Classify(g, cfg)
	after := gfunc.Classify(h, cfg)
	t.AddRow(g.Name(), "×(1+0.3 sin x)", fmtF(gfunc.Theta(g, h, cfg.M)),
		before.TwoPass.String()+" (2p)", after.TwoPass.String()+" (2p)")

	t.AddNote("Thm 64: every δ > 0 suffices to make g_np intractable; Prop 63: finite Θ preserves slow-jumping/dropping")
	return t
}

// E15MajorityAmplification reproduces Theorem 44's amplification: majority
// over ℓ = 96 ln n copies of a 2/3-correct protocol drives per-element
// failure below 1/n², making the DISJ(n,t+1) -> DISJ+IND(n,t) reduction
// work. Measured failure rates sit under the Chernoff curve.
func E15MajorityAmplification(quick bool) Table {
	t := Table{
		ID:     "E15",
		Title:  "Theorem 44 majority amplification: observed vs Chernoff",
		Header: []string{"copies ℓ", "observed failure", "Chernoff bound", "1/n² target (n)"},
	}
	trials := 20000
	if quick {
		trials = 6000
	}
	rng := util.NewSplitMix64(314159)
	for _, n := range []int{16, 64, 256} {
		copies := comm.MajorityCopies(n)
		obs := comm.MajorityBoost(2.0/3, copies, trials, rng.Fork())
		bound := comm.ChernoffFailureBound(2.0/3, copies)
		t.AddRow(fmt.Sprint(copies), fmtF(obs), fmtF(bound),
			fmt.Sprintf("%.3g (n=%d)", 1/float64(n*n), n))
	}
	t.AddNote("expected shape: observed <= bound <= 1/n², the union-bound budget of the DISJ+IND protocol")
	return t
}
