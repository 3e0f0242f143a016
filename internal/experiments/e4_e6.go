package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
)

// feedDist streams every update into a DIST solver.
func feedDist(ds *comm.DistSolver, s *stream.Stream) {
	s.Each(func(u stream.Update) { ds.Update(u.Item, u.Delta) })
}

// commExact adapts the exact baseline to the comm.Estimator interface.
type commExact struct {
	g gfunc.Func
	e *sketch.Exact
}

func newCommExact(g gfunc.Func) *commExact {
	return &commExact{g: g, e: sketch.NewExact()}
}

func (x *commExact) Update(item uint64, delta int64) { x.e.Update(item, delta) }

func (x *commExact) Estimate() float64 {
	var sum float64
	x.e.Each(func(_ uint64, f int64) { sum += x.g.Eval(uint64(util.SatAbsInt64(f))) })
	return sum
}

// E4IndexReduction executes the Lemma 23 reduction: 1/x is not
// slow-dropping, and the INDEX instances it induces defeat any fixed
// sub-polynomial sketch — the one-pass estimator's distinguishing accuracy
// collapses to coin flipping as the instance grows, while the exact
// (linear-space) algorithm stays at 100%.
func E4IndexReduction(quick bool) Table {
	t := Table{
		ID:     "E4",
		Title:  "Lemma 23 INDEX reduction for 1/x (not slow-dropping)",
		Header: []string{"y (=n)", "|A|", "sketch acc", "sketch KB", "exact acc", "exact KB"},
	}
	g := gfunc.Reciprocal()
	// Following Lemma 23 with α = 1: |A| = y, so the instance grows while
	// the sketch parameters stay fixed (a fixed sub-polynomial budget).
	sizes := []uint64{64, 256, 1024, 4096}
	trials := 20
	if quick {
		sizes = []uint64{64, 1024}
		trials = 10
	}
	for _, y := range sizes {
		cfg := comm.IndexDropConfig{G: g, X: 1, Y: y, SetSize: int(y), Seed: y}
		var sketchSpace int
		makePair := func(trial int) comm.InstancePair { return comm.NewIndexDropPair(cfg, trial) }
		accSketch := comm.Distinguisher(makePair, func(trial, which int) comm.Estimator {
			e := core.NewOnePass(g, core.Options{
				N: uint64(cfg.SetSize + 2), M: int64(2 * y), Eps: 0.1,
				Seed: uint64(trial)*31 + uint64(which), Lambda: 1.0 / 8,
				// Fixed budget: envelope clamped to 1 (the true drop
				// envelope grows like y, i.e. polynomially), shallow
				// recursion, narrow rows.
				Envelope: 1, Levels: 6, WidthFactor: 0.5,
			})
			sketchSpace = e.SpaceBytes()
			return e
		}, trials)
		accExact := comm.Distinguisher(makePair, func(trial, which int) comm.Estimator {
			return newCommExact(g)
		}, trials)
		exactSpace := (cfg.SetSize + 1) * 16
		t.AddRow(fmt.Sprint(y), fmt.Sprint(cfg.SetSize),
			fmtPct(accSketch), fmtF(float64(sketchSpace)/1024),
			fmtPct(accExact), fmtF(float64(exactSpace)/1024))
	}
	t.AddNote("expected shape: sketch accuracy falls toward chance as y grows at fixed budget; exact stays 100%%")
	t.AddNote("chance is 25%%: a trial counts only if BOTH the Yes and the No instance land on the correct side")
	return t
}

// E5DisjIndReduction executes the Lemma 24 reduction: x³ is not
// slow-jumping; the DISJ+IND instances plant a single frequency-y item
// whose F2 share shrinks like 1/y, so a fixed-size sketch cannot see the
// g-dominant item and the distinguishing accuracy collapses.
func E5DisjIndReduction(quick bool) Table {
	t := Table{
		ID:     "E5",
		Title:  "Lemma 24 DISJ+IND reduction for x^3 (not slow-jumping)",
		Header: []string{"y", "x", "players t", "items", "gap factor", "sketch acc", "exact acc"},
	}
	g := gfunc.X3()
	ys := []uint64{32, 64, 128, 256}
	trials := 16
	if quick {
		ys = []uint64{32, 128}
		trials = 8
	}
	for _, y := range ys {
		x := uint64(float64(y)*0.4) | 1 // ~y^0.4-ish scale; odd to avoid degenerate gcds
		x = isqrtScale(y)
		tPlayers := y / x
		// Lemma 24 sizes the universe so the planted item's F2 share is
		// ~1/y: n' items of frequency x with n'x² ≈ y³/x⁰ → n' = y³/x²...
		// use n' = (y/x)² · y / 2 to keep laptop-scale streams.
		items := int((y / x) * (y / x) * y / 2)
		if items < 64 {
			items = 64
		}
		setSize := items / int(tPlayers)
		cfg := comm.DisjJumpConfig{G: g, X: x, Y: y, SetSize: setSize, Seed: y * 3}
		p0 := comm.NewDisjJumpPair(cfg, 0)

		makePair := func(trial int) comm.InstancePair { return comm.NewDisjJumpPair(cfg, trial) }
		accSketch := comm.Distinguisher(makePair, func(trial, which int) comm.Estimator {
			return core.NewOnePass(g, core.Options{
				N: uint64(setSize*int(tPlayers) + 2), M: int64(2 * y), Eps: 0.1,
				Seed: uint64(trial)*37 + uint64(which), Lambda: 1.0 / 16,
				Envelope: 4, // fixed size: the envelope the sketch WOULD need is ~y
			})
		}, trials)
		accExact := comm.Distinguisher(makePair, func(trial, which int) comm.Estimator {
			return newCommExact(g)
		}, trials)
		t.AddRow(fmt.Sprint(y), fmt.Sprint(x), fmt.Sprint(tPlayers),
			fmt.Sprint(setSize*int(tPlayers)), fmtF(p0.GapFactor()),
			fmtPct(accSketch), fmtPct(accExact))
	}
	t.AddNote("expected shape: fixed-size sketch accuracy decays as y grows (required width ~ envelope ~ y); exact stays 100%%")
	return t
}

// isqrtScale returns ~y^0.5, the x used in the jump witness family.
func isqrtScale(y uint64) uint64 {
	x := uint64(1)
	for x*x < y {
		x++
	}
	if x < 2 {
		x = 2
	}
	return x
}

// E6ShortLinearCombination reproduces Appendix C: the (a,b,c)-DIST problem
// is solvable with t = Õ(n/q²) counters (Proposition 49) and not below
// (Theorem 48). For pairs with growing minimal coefficient q, the table
// sweeps the bucket count t and reports detection accuracy: the t needed
// for reliable detection grows with the load the residue radius tolerates,
// i.e. with n/q².
func E6ShortLinearCombination(quick bool) Table {
	t := Table{
		ID:     "E6",
		Title:  "ShortLinearCombination (a,b,1)-DIST: accuracy vs buckets t (Prop 49 / Thm 48)",
		Header: []string{"(a,b)", "min q", "radius l", "t=16", "t=64", "t=256", "t=1024"},
	}
	pairs := [][2]int64{{7, 3}, {31, 12}, {61, 17}, {127, 47}}
	ts := []int{16, 64, 256, 1024}
	trials := 20
	items := 300
	if quick {
		pairs = pairs[:2]
		trials = 10
	}
	for _, ab := range pairs {
		a, b := ab[0], ab[1]
		q, ok := comm.MinCombination([]int64{a, b}, 1, int(a+b))
		if !ok {
			t.AddRow(fmt.Sprintf("(%d,%d)", a, b), "n/a", "", "", "", "", "")
			continue
		}
		qn := comm.NormOf(q)
		// Sound residue radius: largest l with disjoint residue sets (can
		// be 0 for tiny q, in which case the bucket load must be < 1 for
		// soundness — the Ω(n/q²) regime).
		sound := int64(0)
		for comm.ResidueSetsDisjoint(a, b, 1, sound+1) == nil {
			sound++
		}
		row := []string{fmt.Sprintf("(%d,%d)", a, b), fmt.Sprint(qn), fmt.Sprint(sound)}
		for _, tt := range ts {
			// Use the largest sound radius (never below 1): a wider base
			// set only helps absorb bucket collisions, and soundness keeps
			// the c-shifted residues outside it. Buckets hold ~items/t
			// signed b-items; whenever the realized |z| exceeds l the
			// solver errs — for small q (small sound radius) that happens
			// at every laptop-scale t, which is the Ω(n/q²) lower bound
			// made visible.
			l := sound
			if l < 1 {
				l = 1
			}
			correct := 0
			for trial := 0; trial < trials; trial++ {
				yes, no := comm.NewDistPair(comm.DistConfig{
					A: a, B: b, C: 1, N: 1 << 12,
					FillA: items, FillB: items, Seed: uint64(trial)*17 + uint64(a),
				}, trial)
				sy := comm.NewDistSolver(a, b, 1, tt, l,
					util.NewSplitMix64(uint64(trial)*29+uint64(a+b)))
				feedDist(sy, yes)
				sn := comm.NewDistSolver(a, b, 1, tt, l,
					util.NewSplitMix64(uint64(trial)*29+uint64(a+b)))
				feedDist(sn, no)
				if sy.Detect() && !sn.Detect() {
					correct++
				}
			}
			row = append(row, fmtPct(float64(correct)/float64(trials)))
		}
		t.AddRow(row...)
	}
	t.AddNote("expected shape: larger q (larger radius) tolerates more bucket collisions, so accuracy reaches ~100%% at smaller t; tiny q needs t close to the item count")
	t.AddNote("the (7,3) row has b-coefficient 2, sound radius 0: soundness needs buckets with no two colliding b-items, i.e. t = Ω(n²) at this scale — its flat 0%% IS Theorem 48's lower bound")
	return t
}
