package universal

// Tests of the public API surface: everything a downstream user touches
// must work through the root package alone.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stream"
	"repro/internal/util"
)

func TestPublicQuickstartFlow(t *testing.T) {
	g := X2Log()
	s := NewStream(1 << 12)
	s.Add(7, 3)
	s.Add(9, -2)
	s.Add(7, -1)

	est := NewOnePassEstimator(g, Options{N: 1 << 12, M: 1 << 10, Seed: 1})
	est.Process(s)
	want := g.Eval(2) * 2 // |v_7| = 2, |v_9| = 2
	if util.RelErr(est.Estimate(), want) > 0.05 {
		t.Errorf("quickstart estimate %.4g, want %.4g", est.Estimate(), want)
	}
}

func TestPublicClassifyMatchesVerdictConstants(t *testing.T) {
	cfg := DefaultCheckConfig()
	if c := Classify(F2(), cfg); c.OnePass != Tractable {
		t.Errorf("x² should be Tractable, got %v", c.OnePass)
	}
	if c := Classify(Reciprocal(), cfg); c.OnePass != Intractable {
		t.Errorf("1/x should be Intractable, got %v", c.OnePass)
	}
	if c := Classify(Gnp(), cfg); c.OnePass != OpenNearlyPeriodic {
		t.Errorf("g_np should be OpenNearlyPeriodic, got %v", c.OnePass)
	}
}

func TestPublicTwoPassFlow(t *testing.T) {
	g := SinSqrtX2()
	s := stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: 2}, 300, 1.1)
	exact := NewExactEstimator(g)
	exact.Process(s)
	two := NewTwoPassEstimator(g, Options{N: s.N(), M: 1 << 10, Seed: 3})
	if util.RelErr(two.Run(s), exact.Estimate()) > 0.3 {
		t.Error("2-pass estimate out of tolerance on unpredictable g")
	}
}

// TestPublicUniversalSketch: the §1.1.1 universal sketch is a one-pass
// estimator sized for the family's envelope, queried post hoc.
func TestPublicUniversalSketch(t *testing.T) {
	s := stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: 5}, 300, 1.1)
	u := NewOnePassEstimator(F2(), Options{N: s.N(), M: 1 << 10, Seed: 7, Envelope: 16})
	u.Process(s)
	for _, g := range []Func{F2(), F1(), X2Log()} {
		exact := NewExactEstimator(g)
		exact.Process(s)
		if util.RelErr(u.EstimateFor(g), exact.Estimate()) > 0.3 {
			t.Errorf("universal sketch misestimates %s", g.Name())
		}
	}
}

func TestPublicNormalizeAndNew(t *testing.T) {
	g := Normalize("sqrt", func(x uint64) float64 { return math.Sqrt(float64(x)) })
	if g.Eval(0) != 0 || g.Eval(1) != 1 {
		t.Error("Normalize broke the class-G pins")
	}
	h := New("lin", func(x uint64) float64 { return float64(x) })
	if h.Eval(5) != 5 {
		t.Error("New closure broken")
	}
}

func TestPublicPowerCatalog(t *testing.T) {
	f := func(p8 uint8) bool {
		p := float64(p8%40)/10 + 0.1 // 0.1 .. 4.0
		g := Power(p)
		return g.Eval(0) == 0 && math.Abs(g.Eval(1)-1) < 1e-12 && g.Eval(2) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPublicLEta(t *testing.T) {
	g := LEta(F2(), 1)
	if g.Eval(0) != 0 || math.Abs(g.Eval(1)-1) > 1e-12 {
		t.Error("LEta broke normalization")
	}
	// L_1(x²) = x² log(1+x) / log 2 — grows strictly faster than x².
	if g.Eval(1000) <= F2().Eval(1000) {
		t.Error("LEta should add a logarithmic factor")
	}
}

func TestPublicEstimatorMergeExposed(t *testing.T) {
	g := F2()
	opts := Options{N: 1 << 10, M: 1 << 8, Seed: 11, Lambda: 1.0 / 8}
	a := NewOnePassEstimator(g, opts)
	b := NewOnePassEstimator(g, opts)
	a.Update(1, 10)
	b.Update(2, 20)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if util.RelErr(a.Estimate(), 500) > 0.1 {
		t.Errorf("merged estimate %.4g, want 500", a.Estimate())
	}
}
