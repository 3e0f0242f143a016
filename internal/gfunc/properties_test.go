package gfunc

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

// Property-based tests of the witness checkers and grid machinery: the
// classifier's verdicts are covered by classify_test.go; here we pin down
// the internal invariants the checkers rely on.

func TestGridSortedDistinct(t *testing.T) {
	f := func(m16 uint16) bool {
		m := uint64(m16) + 1
		g := Grid(m, 64)
		for i := 1; i < len(g); i++ {
			if g[i] <= g[i-1] {
				return false
			}
		}
		return len(g) > 0 && g[0] >= 1 && g[len(g)-1] <= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGridContainsPowersOfTwo(t *testing.T) {
	g := Grid(1<<20, 1024)
	present := make(map[uint64]bool, len(g))
	for _, x := range g {
		present[x] = true
	}
	for p := uint64(1); p <= 1<<20; p <<= 1 {
		if !present[p] {
			t.Errorf("grid is missing 2^k point %d", p)
		}
	}
}

func TestLogEvalConsistency(t *testing.T) {
	// LogEval must agree with log(Eval) wherever Eval is finite.
	for _, g := range []Func{F2Func(), Power(0.5), X2Log(), Reciprocal()} {
		for _, x := range []uint64{1, 2, 17, 1024, 1 << 20} {
			want := math.Log(g.Eval(x))
			got := LogEval(g, x)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("%s: LogEval(%d) = %v, log(Eval) = %v", g.Name(), x, got, want)
			}
		}
	}
}

func TestLogEvalHandlesOverflow(t *testing.T) {
	// 2^(x-1) overflows float64 near x = 1075; LogEval must stay finite.
	g := Exp2()
	if v := LogEval(g, 100000); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("LogEval overflowed: %v", v)
	}
	if math.Abs(LogEval(g, 100000)-99999*math.Ln2) > 1 {
		t.Error("LogEval(2^(x-1)) wrong")
	}
}

func TestEnvelopeDominates(t *testing.T) {
	// MeasureEnvelope's H must actually dominate the drop and jump ratios
	// on the measurement grid — the property Algorithms 1/2 size by.
	for _, g := range []Func{F2Func(), X2Log(), SinX2(), SinLogX2()} {
		const m = 1 << 14
		env := MeasureEnvelope(g, m)
		h := env.H()
		grid := Grid(m, 256)
		for i, y := range grid {
			ly := LogEval(g, y)
			for _, x := range grid[:i] {
				lx := LogEval(g, x)
				if lx-ly > math.Log(h)+1e-9 {
					t.Fatalf("%s: drop g(%d)/g(%d) exceeds H=%v", g.Name(), x, y, h)
				}
				if ly-lx-2*math.Log(float64(y/x)) > math.Log(h)+1e-9 {
					t.Fatalf("%s: jump at (%d,%d) exceeds H=%v", g.Name(), x, y, h)
				}
			}
		}
	}
}

func TestEnvelopeOrdersByDifficulty(t *testing.T) {
	// x² has (almost) no envelope; x² lg(1+x) a logarithmic one; x³ a
	// polynomial one. The measured H must reflect that ordering.
	m := uint64(1 << 16)
	h2 := MeasureEnvelope(F2Func(), m).H()
	hlog := MeasureEnvelope(X2Log(), m).H()
	h3 := MeasureEnvelope(X3(), m).H()
	if !(h2 < hlog && hlog < h3) {
		t.Errorf("envelope ordering broken: x²=%v, x²lg=%v, x³=%v", h2, hlog, h3)
	}
	if h3 < float64(m)/8 {
		t.Errorf("x³ envelope %v should be ~M (polynomial)", h3)
	}
}

func TestStableRadiusSmoothVsOscillating(t *testing.T) {
	// r_ε grows with x for smooth functions (relative stability) and
	// stays bounded by the oscillation wavelength for (2+sin √x)x².
	smooth := F2Func()
	r1 := StableRadius(smooth, 1000, 0.25)
	r2 := StableRadius(smooth, 100000, 0.25)
	if r2 <= r1 {
		t.Errorf("x² stable radius should grow with x: r(1e3)=%d, r(1e5)=%d", r1, r2)
	}
	osc := SinSqrtX2()
	ro := StableRadius(osc, 100000, 0.25)
	// wavelength at x: Δ(√x) = π ⇒ Δx ≈ 2π√x ≈ 1987; the 25% band is hit
	// well inside one wavelength.
	if ro >= 4000 {
		t.Errorf("(2+sin √x)x² stable radius %d should be below the wavelength", ro)
	}
	if ro >= r2 {
		t.Errorf("oscillating radius %d should be far below smooth radius %d", ro, r2)
	}
}

func TestStableRadiusZeroAtJump(t *testing.T) {
	// g_np jumps by factor 2 between adjacent integers around odd x:
	// the radius at a large odd point is 0 for ε < 1/2.
	g := Gnp()
	if r := StableRadius(g, 10001, 0.25); r != 0 {
		t.Errorf("g_np radius at an odd point = %d, want 0", r)
	}
}

func TestCheckConfigWindowsOrdered(t *testing.T) {
	cfg := DefaultCheckConfig()
	midLo, midHi, topLo, topHi := cfg.windows()
	if !(midLo < midHi && midHi <= topLo && topLo < topHi) {
		t.Errorf("windows out of order: [%d,%d] [%d,%d]", midLo, midHi, topLo, topHi)
	}
	if topHi != cfg.M {
		t.Errorf("top window must end at M")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	bad1 := New("g0!=0", func(x uint64) float64 { return 1 })
	if Validate(bad1, 100) == nil {
		t.Error("expected g(0)=0 violation")
	}
	bad2 := New("g1!=1", func(x uint64) float64 {
		if x == 0 {
			return 0
		}
		return 2
	})
	if Validate(bad2, 100) == nil {
		t.Error("expected g(1)=1 violation")
	}
	bad3 := New("negative", func(x uint64) float64 {
		switch {
		case x == 0:
			return 0
		case x == 1:
			return 1
		default:
			return -1
		}
	})
	if Validate(bad3, 100) == nil {
		t.Error("expected positivity violation")
	}
}

// shifted returns g(x) = f(x+shift)/f(1+shift) for x > 0: a variant whose
// interesting behaviour starts away from the origin.
func shifted(f Func, shift uint64) Func {
	name := f.Name() + "(x+" + strconv.FormatUint(shift, 10) + ")"
	return Normalize(name, func(x uint64) float64 {
		return f.Eval(x + shift)
	})
}

func TestShiftedKeepsClassG(t *testing.T) {
	g := shifted(SinSqrtX2(), 1000)
	if err := Validate(g, 1<<12); err != nil {
		t.Error(err)
	}
}

func TestPredictableWitnessRecorded(t *testing.T) {
	cfg := DefaultCheckConfig()
	r := CheckPredictable(SinSqrtX2(), cfg)
	if r.Holds {
		t.Fatal("(2+sin sqrt x)x² must fail predictability")
	}
	if r.Witness == nil {
		t.Fatal("failing check must carry a witness")
	}
	// The witness must actually violate Definition 8 at γ: g(y) far below
	// x^{-γ} g(x) while g(x+y) is ε-far from g(x).
	w := r.Witness
	g := SinSqrtX2()
	if w.GY >= math.Pow(float64(w.X), -cfg.Gamma)*w.GX {
		t.Errorf("witness does not violate the growth condition: %s", w)
	}
	eps := cfg.Eps(w.X)
	if math.Abs(g.Eval(w.X+w.Y)-w.GX) <= eps*w.GX {
		t.Errorf("witness pair is ε-stable, not a violation: %s", w)
	}
}

func TestSlowDroppingWitnessRecorded(t *testing.T) {
	r := CheckSlowDropping(Reciprocal(), DefaultCheckConfig())
	if r.Holds || r.Witness == nil {
		t.Fatal("1/x must fail slow-dropping with a witness")
	}
	if r.Witness.GX <= r.Witness.GY {
		t.Errorf("drop witness must have g(x) > g(y): %s", r.Witness)
	}
}
