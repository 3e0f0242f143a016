package core

import (
	"testing"

	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

func TestOffsetEstimatorMatchesExact(t *testing.T) {
	// g(x) = 1 + x² (G0 class): zeros contribute 1 each, so the full sum
	// over an n-coordinate vector is (n - F0) + Σ_{v≠0} (1 + v²).
	g := gfunc.NormalizeG0("1+x^2", func(x uint64) float64 {
		return 1 + float64(x)*float64(x)
	})
	for seed := uint64(1); seed <= 3; seed++ {
		s := stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 300, 1.1)
		v := s.Vector()
		var truth float64
		for i := uint64(0); i < s.N(); i++ {
			f := v[i]
			truth += g.Eval(uint64(util.SatAbsInt64(f)))
		}
		e := NewOffsetEstimator(g, Options{
			N: s.N(), M: 1 << 10, Eps: 0.2, Seed: seed * 31, Lambda: 1.0 / 16,
		})
		e.Process(s)
		if err := util.RelErr(e.Estimate(), truth); err > 0.25 {
			t.Errorf("seed %d: offset estimator rel err %.3f (got %.6g, want %.6g)",
				seed, err, e.Estimate(), truth)
		}
	}
}

func TestOffsetEstimatorAllZeros(t *testing.T) {
	// Empty stream: every coordinate contributes g(0) = 1.
	g := gfunc.NormalizeG0("1+x", func(x uint64) float64 { return 1 + float64(x) })
	e := NewOffsetEstimator(g, Options{N: 1 << 10, M: 16, Seed: 3})
	if err := util.RelErr(e.Estimate(), float64(1<<10)); err > 0.05 {
		t.Errorf("all-zeros estimate %.4g, want %d", e.Estimate(), 1<<10)
	}
}

func TestOffsetEstimatorCancellation(t *testing.T) {
	// Insert then delete: the coordinate returns to zero and must be
	// charged g(0), not g(v).
	g := gfunc.NormalizeG0("1+x^2", func(x uint64) float64 {
		return 1 + float64(x)*float64(x)
	})
	e := NewOffsetEstimator(g, Options{N: 64, M: 1 << 10, Seed: 9})
	e.Update(5, 100)
	e.Update(5, -100)
	e.Update(7, 3)
	want := 63.0 + (1 + 9) // 63 zeros + one coordinate at 3
	if err := util.RelErr(e.Estimate(), want); err > 0.1 {
		t.Errorf("estimate %.4g, want %.4g", e.Estimate(), want)
	}
}
