package backend_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The referee: does a sketch the registry opens keep the paper's promise?
// Theorem 2 (one pass) and Theorem 3 (two passes) say an estimator sized
// for (ε, δ) returns |est − G| ≤ εG with probability ≥ 1 − δ over its own
// random choices, for a stream fixed beforehand. So: fix a stream, open S
// estimators that differ only in Options.Seed, and count how many land
// inside εG of the exact kind's answer. The count is Bin(S, p) with
// p ≥ 1 − δ if the theorem holds; the test fails when it falls below the
// lower quantile of Bin(S, 1 − δ) that a conforming sketch would undercut
// with probability confFalseFail. Everything is seeded, so the count is a
// constant of the commit: the test cannot flake, it can only move when the
// sketch does — which is what it is for. Every change to the sketch's
// layout is judged against the counts recorded here at the commit before
// it (confParent), as PRs 16 and 19 judged theirs against state digests.
//
// What the assertions hold under: ε = 0.25, δ = 0.2 (Options' defaults),
// λ = 1/16 — the benchmark's options at N = 2^14 — i.e. a λ at or above
// the repository's floor (core.DefaultLambdaFloor), not Theorem 13's
// ε²/log³ n, which at this N is 2^-15.4 and would size every level of the
// x² sketch at over 2^23 buckets. The rates below are the price of that
// deviation: none.

// confOptions are bench/workloads.go's sketchOptions on a 2^14 domain.
var confOptions = core.Options{N: 1 << 14, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16}

const (
	confSeeds      = 40   // sketch seeds 1..40 per cell; the first confShortSeeds under -short
	confShortSeeds = 10   //
	confFalseFail  = 1e-6 // probability that a conforming cell fails its assertion
)

// confKinds are the kinds that answer a g-SUM through the recursive
// sketch. window is onepass per bucket and exact is the oracle.
var confKinds = []backend.Kind{backend.KindOnePass, backend.KindTwoPass, confUniversal, backend.KindSharded}

// confUniversal labels the rows of the §1.1.1 universal sketch: one
// onepass sketch a seed, sized for the largest envelope of confFuncs and
// queried post hoc with each of them (FuncQuerier). It was a kind of its
// own until it was folded into onepass, and its rows kept their counts.
const confUniversal backend.Kind = "universal"

// confWorkloads are fixed streams of 2^14 updates over 2^12 items: no heavy
// hitter at all, a heavy tail, and a stream built to collide in a
// CountSketch (aimed at one fixed seed, so against S seeds it is the
// theorem's "stream fixed beforehand", with at most one seed hit).
var confWorkloads = []workload.Generator{workload.Uniform{}, workload.Zipf{Alpha: 1.1}, workload.Adversarial{}}

// confFuncs returns the catalog's one-pass tractable functions (Theorem 2's
// side of the zero-one law), in catalog order.
func confFuncs() []gfunc.Func {
	var out []gfunc.Func
	for _, e := range gfunc.Catalog() {
		if e.WantOnePass == gfunc.Tractable {
			out = append(out, e.Func)
		}
	}
	return out
}

// confCell is one (kind, workload) row of the table. hits and shortHits
// count, per function in confFuncs order, the estimates inside εG over all
// confSeeds seeds and over the first confShortSeeds: the theorem's event.
// That event is rare to miss at these options (the median relative error
// is 0.00–0.09), so a row also counts, over all its functions, the
// estimates inside εG/4: no theorem promises a rate for those, but about
// half of a uniform row's estimates are, which makes the count move when
// accuracy does. It is only ever compared with the parent's.
type confCell struct {
	hits, shortHits   []int
	tight, shortTight int
}

// confParent is the table at e907d1a, the commit before the sketch's
// layout moved, from this file run there unchanged (`go test -run
// TestConformance -v` prints rows in this form). Of 4800 estimates one is
// outside εG (twopass, adversarial, 1(x>0)).
var confParent = map[string]confCell{
	"onepass/uniform":       {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 308, shortTight: 67},
	"onepass/zipf":          {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 361, shortTight: 95},
	"onepass/adversarial":   {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 354, shortTight: 89},
	"twopass/uniform":       {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 327, shortTight: 76},
	"twopass/zipf":          {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 345, shortTight: 90},
	"twopass/adversarial":   {hits: []int{40, 40, 40, 40, 39, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 351, shortTight: 88},
	"universal/uniform":     {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 382, shortTight: 93},
	"universal/zipf":        {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 400, shortTight: 100},
	"universal/adversarial": {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 399, shortTight: 100},
	"sharded/uniform":       {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 307, shortTight: 66},
	"sharded/zipf":          {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 360, shortTight: 92},
	"sharded/adversarial":   {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 358, shortTight: 88},
}

// confLayout5 is the table under layout version 5: Algorithm 2's and
// Algorithm 1's sketches half version 4's width (heavy.dims at the knee
// with a 2x margin), the pruning window the fixed point of
// heavy.OnePass.ErrorWindow. 4797 of 4800 estimates are inside εG
// (onepass and sharded, adversarial, one each; twopass's one as before),
// at 52% of version 4's one-pass bytes; the εG/4 column moves by at most
// 14 of 400 (sharded/uniform 309 to 295), and every row still clears
// checkAgainstParent. TestConformanceLayoutPin holds the tree to these
// exactly.
var confLayout5 = map[string]confCell{
	"onepass/uniform":       {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 296, shortTight: 71},
	"onepass/zipf":          {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 351, shortTight: 90},
	"onepass/adversarial":   {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 39}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 9}, tight: 357, shortTight: 92},
	"twopass/uniform":       {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 347, shortTight: 82},
	"twopass/zipf":          {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 354, shortTight: 93},
	"twopass/adversarial":   {hits: []int{40, 40, 40, 40, 39, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 347, shortTight: 87},
	"universal/uniform":     {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 380, shortTight: 89},
	"universal/zipf":        {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 400, shortTight: 100},
	"universal/adversarial": {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 393, shortTight: 96},
	"sharded/uniform":       {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 295, shortTight: 71},
	"sharded/zipf":          {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, tight: 356, shortTight: 90},
	"sharded/adversarial":   {hits: []int{40, 40, 40, 40, 40, 40, 40, 40, 40, 39}, shortHits: []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 9}, tight: 354, shortTight: 90},
}

// confParentSpace is SpaceBytes at e907d1a per kind, in confFuncs order.
var confParentSpace = map[backend.Kind][]int{
	backend.KindOnePass: {3533040, 1766640, 3506160, 1753200, 883440, 14039520, 7016880, 14039520, 14017200, 888240},
	backend.KindTwoPass: {1290480, 645360, 1272480, 636480, 322800, 5100000, 2548080, 5100000, 5085120, 633120},
	confUniversal:       {14039520, 14039520, 14039520, 14039520, 14039520, 14039520, 14039520, 14039520, 14039520, 14039520},
	backend.KindSharded: {7066080, 3533280, 7012320, 3506400, 1766880, 28079040, 14033760, 28079040, 28034400, 1776480},
}

// binomialLowerQuantile returns the largest k with P(Bin(n, p) < k) ≤ alpha:
// a count below k is evidence at level alpha that the success rate is
// under p.
func binomialLowerQuantile(n int, p, alpha float64) int {
	cdf := 0.0
	for k := 0; k <= n; k++ {
		lc, _ := math.Lgamma(float64(n + 1))
		lk, _ := math.Lgamma(float64(k + 1))
		lnk, _ := math.Lgamma(float64(n - k + 1))
		cdf += math.Exp(lc - lk - lnk + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
		if cdf > alpha {
			return k
		}
	}
	return n
}

// spaceEnvelope is the stated bound on SpaceBytes for one recursive stack:
// Theorem 13 with a CountSketch per level is
// O((H/λ) · ε^-2 · log(1/δ) · log N) counters. The constants are this
// repository's (heavy.dims at λ/3 and δ/2, sizing v3): per level at most
// 2 · max(48, 3/ε²) · H/λ buckets (the power of two above dims' width) in
// at most max(5, 2 ln(2/δ) + 2) rows, 8 bytes each, plus 16 bytes for each
// of the 6H/λ + 2 tracked candidates, over at most log2 N + 1 levels.
func spaceEnvelope(o core.Options, h float64) int {
	buckets := 2 * math.Max(48, 3/(o.Eps*o.Eps)) * h / o.Lambda
	rows := math.Max(5, 2*math.Log(2/o.Delta)+2)
	perLevel := 8*rows*buckets + 16*(6*h/o.Lambda+2)
	return int(perLevel * (math.Log2(float64(o.N)) + 1))
}

func confKey(kind backend.Kind, w workload.Generator) string {
	return string(kind) + "/" + w.Name()
}

// confRun ingests s into a fresh estimator of the kind through
// backend.Process, the door every frontend uses. specFor fixes every
// worker count, so the result is a constant of (stream, Spec) — the
// sharded kind cuts chunks by position and merges them in order — as a
// referee's counts must be.
func confRun(t *testing.T, spec backend.Spec, s *stream.Stream) backend.Estimator {
	t.Helper()
	est, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Process(est, s); err != nil {
		t.Fatal(err)
	}
	return est
}

// confCounts is the table the referee counts: a confCell per (kind,
// workload) row, SpaceBytes per kind and function on the first workload,
// and the envelopes the sketches were sized for.
type confCounts struct {
	cells       map[string]*confCell
	space       map[backend.Kind][]int
	envelopes   []float64
	maxEnvelope float64
}

// confCounted is the table once counted: TestConformance and
// TestConformanceLayoutPin read it, and counting is most of the package's
// time.
var confCounted *confCounts

// countConformance counts the table, or returns the one counted already.
func countConformance(t *testing.T) *confCounts {
	if confCounted != nil {
		return confCounted
	}
	seeds := confSeeds
	if testing.Short() {
		seeds = confShortSeeds
	}
	opts := confOptions.WithDefaults()
	funcs := confFuncs()
	envelopes := make([]float64, len(funcs))
	maxEnvelope := 0.0
	for i, g := range funcs {
		envelopes[i] = core.EnvelopeFor(g, opts)
		maxEnvelope = math.Max(maxEnvelope, envelopes[i])
	}
	// specFor pins the measured envelope: Normalize would measure it again
	// on every Open, and that scan is most of a small sketch's set-up.
	specFor := func(kind backend.Kind, gi int, seed uint64) backend.Spec {
		spec := backend.Spec{Kind: kind, G: funcs[gi].Name(), Options: confOptions}
		spec.Options.Seed, spec.Options.Envelope = seed, envelopes[gi]
		switch kind {
		case backend.KindTwoPass:
			// Serial: Workers 0 would chunk by GOMAXPROCS, a property of
			// the host, not of the commit.
			spec.Workers = 1
		case backend.KindSharded:
			spec.Workers = 2
		case confUniversal:
			// One sketch, sized for the whole family, queried with each g.
			spec.Kind, spec.Options.Envelope = backend.KindOnePass, maxEnvelope
		}
		return spec
	}

	got := map[string]*confCell{}
	space := map[backend.Kind][]int{} // filled by the first workload's runs
	for _, kind := range confKinds {
		space[kind] = make([]int, len(funcs))
		for _, w := range confWorkloads {
			got[confKey(kind, w)] = &confCell{hits: make([]int, len(funcs)), shortHits: make([]int, len(funcs))}
		}
	}
	// One goroutine per workload: each writes only its own rows.
	t.Run("streams", func(t *testing.T) {
		for wi, w := range confWorkloads {
			wi, w := wi, w // go.mod says go 1.21: one variable for the whole loop
			t.Run(w.Name(), func(t *testing.T) {
				t.Parallel()
				s := w.Generate(workload.Config{N: confOptions.N, Items: 1 << 12, Length: 1 << 14, Seed: 1})
				if m := s.Vector().MaxAbs(); m > confOptions.M {
					t.Fatalf("a frequency of %d breaks the promise M = %d the sketches are sized for", m, confOptions.M)
				}
				exact := make([]float64, len(funcs))
				for gi, g := range funcs {
					exact[gi] = confRun(t, backend.Spec{Kind: backend.KindExact, G: g.Name(), Options: confOptions}, s).Estimate()
				}
				score := func(kind backend.Kind, gi int, seed uint64, est backend.Estimator, value float64) {
					if wi == 0 {
						space[kind][gi] = est.SpaceBytes()
					}
					c, off := got[confKey(kind, w)], math.Abs(value-exact[gi])
					short := seed <= confShortSeeds
					if off <= opts.Eps*exact[gi] {
						c.hits[gi]++
						if short {
							c.shortHits[gi]++
						}
					}
					if off <= opts.Eps/4*exact[gi] {
						c.tight++
						if short {
							c.shortTight++
						}
					}
				}
				for seed := uint64(1); seed <= uint64(seeds); seed++ {
					for _, kind := range confKinds {
						if kind == confUniversal {
							u := confRun(t, specFor(kind, 0, seed), s)
							for gi, g := range funcs {
								score(kind, gi, seed, u, u.(backend.FuncQuerier).EstimateFor(g))
							}
							continue
						}
						for gi := range funcs {
							est := confRun(t, specFor(kind, gi, seed), s)
							score(kind, gi, seed, est, est.Estimate())
						}
					}
				}
			})
		}
	})
	c := &confCounts{cells: got, space: space, envelopes: envelopes, maxEnvelope: maxEnvelope}
	if !t.Failed() {
		confCounted = c
	}
	return c
}

func TestConformance(t *testing.T) {
	seeds := confSeeds
	if testing.Short() {
		seeds = confShortSeeds
	}
	opts := confOptions.WithDefaults()
	floor := binomialLowerQuantile(seeds, 1-opts.Delta, confFalseFail)
	funcs := confFuncs()
	counts := countConformance(t)
	got, space := counts.cells, counts.space
	for _, kind := range confKinds {
		for gi, g := range funcs {
			h := counts.envelopes[gi]
			if kind == confUniversal {
				h = counts.maxEnvelope
			}
			if bound := spaceEnvelope(opts, h); space[kind][gi] > bound {
				t.Errorf("%s %s: SpaceBytes %d outside the stated envelope %d", kind, g.Name(), space[kind][gi], bound)
			}
			if was := confParentSpace[kind]; was != nil && space[kind][gi] > was[gi] {
				t.Errorf("%s %s: SpaceBytes %d, above the %d of e907d1a", kind, g.Name(), space[kind][gi], was[gi])
			}
		}
		t.Logf("space %-9s %s", kind, goInts(space[kind]))
		for _, w := range confWorkloads {
			key := confKey(kind, w)
			cell := got[key]
			for gi, g := range funcs {
				if cell.hits[gi] < floor {
					t.Errorf("%s %s: %d of %d seeds inside eps = %v of the exact answer; Bin(%d, %v) is below %d with probability %v",
						key, g.Name(), cell.hits[gi], seeds, opts.Eps, seeds, 1-opts.Delta, floor, confFalseFail)
				}
			}
			t.Logf("%q: {hits: []int%s, shortHits: []int%s, tight: %d, shortTight: %d},",
				key, goInts(cell.hits), goInts(cell.shortHits), cell.tight, cell.shortTight)
			if parent, ok := confParent[key]; ok {
				checkAgainstParent(t, key, seeds*len(funcs), *cell, parent)
			}
		}
	}
}

// TestConformanceLayoutPin holds every row of the referee's table to the
// counts recorded for this layout. Unlike TestConformance's statistical
// checks it moves on any change to an estimate, improvements included.
func TestConformanceLayoutPin(t *testing.T) {
	got := countConformance(t).cells
	for _, kind := range confKinds {
		for _, w := range confWorkloads {
			key := confKey(kind, w)
			want := confLayout5[key]
			if testing.Short() {
				want.hits, want.tight = want.shortHits, want.shortTight
			}
			if !reflect.DeepEqual(*got[key], want) {
				t.Errorf("%s: the counts moved off the ones recorded for this layout (confLayout5): something changed what the sketch computes", key)
			}
		}
	}
}

// checkAgainstParent holds a (kind, workload) row to the one recorded at
// the parent commit. A layout change that redraws hash functions redraws
// every count, so single cells are held to the theorem only; the row's
// totals, inside εG and inside εG/4, may fall below the parent's by no more
// than parentSlack.
func checkAgainstParent(t *testing.T, key string, trials int, cell, parent confCell) {
	t.Helper()
	sum := func(v []int) (n int) {
		for _, x := range v {
			n += x
		}
		return n
	}
	rows := []struct {
		what     string
		now, was int
	}{
		{"eps", sum(cell.hits), sum(parent.hits)},
		{"eps/4", cell.tight, parent.tight},
	}
	if testing.Short() {
		rows[0].was, rows[1].was = sum(parent.shortHits), parent.shortTight
	}
	for _, r := range rows {
		if slack := parentSlack(trials, r.was); r.now < r.was-slack {
			t.Errorf("%s: %d of %d estimates inside %s, e907d1a had %d (slack %d)", key, r.now, trials, r.what, r.was, slack)
		}
	}
}

// parentSlack is how far a row's count may fall below the parent's was of
// trials: as far as confFalseFail allows two draws at the parent's rate p̂ to
// differ, 4.9 standard deviations of the difference of two Bin(trials, p̂).
// At p̂ = 0 or 1 that variance is 0, and any draw but the parent's own would
// fail; a count of 0 or trials says only that the rate is within 3/trials of
// it (the rule of three, 95%), so there the variance is taken at that rate.
func parentSlack(trials, was int) int {
	p := float64(was) / float64(trials)
	if was == 0 || was == trials {
		p = 3 / float64(trials)
	}
	return int(math.Ceil(4.9 * math.Sqrt(2*float64(trials)*p*(1-p))))
}

// TestParentSlack: a full (or empty) parent row gets the rule-of-three
// slack, and every row strictly between keeps the slack it had.
func TestParentSlack(t *testing.T) {
	for _, tc := range []struct {
		trials, was, now, slack int
		pass                    bool
	}{
		{100, 100, 97, 12, true},
		{100, 100, 70, 12, false},
		{400, 400, 399, 12, true},
		{400, 400, 388, 12, true},
		{400, 400, 387, 12, false},
		// 0 < p̂ < 1: 4.9·sqrt(2·trials·p̂(1−p̂)), as before the rule of three.
		{400, 399, 392, 7, true},
		{400, 399, 391, 7, false},
		{100, 97, 85, 12, true},
		{400, 308, 249, 59, true},
		{400, 308, 248, 59, false},
	} {
		slack := parentSlack(tc.trials, tc.was)
		if old := int(math.Ceil(4.9 * math.Sqrt(2*float64(tc.was)*(1-float64(tc.was)/float64(tc.trials))))); tc.was > 0 && tc.was < tc.trials && slack != old {
			t.Errorf("parentSlack(%d, %d) = %d, the 0 < p̂ < 1 formula gives %d", tc.trials, tc.was, slack, old)
		}
		if slack != tc.slack || (tc.now >= tc.was-slack) != tc.pass {
			t.Errorf("parentSlack(%d, %d) = %d, want %d; %d of %d passes = %v, want %v",
				tc.trials, tc.was, slack, tc.slack, tc.now, tc.trials, tc.now >= tc.was-slack, tc.pass)
		}
	}
}

// goInts renders v as the body of a Go composite literal, for pasting into
// confParent.
func goInts(v []int) string {
	return "{" + strings.Trim(strings.Join(strings.Fields(fmt.Sprint(v)), ", "), "[]") + "}"
}

// TestSpaceCurve prints SpaceBytes of the one-pass sketch at the benchmark's
// options (bench/workloads.go sketchOptions: g = x², λ = 1/16) for
// N = 2^12 … 2^30, at the depth Options.Levels = 0 resolves to and at
// ⌈log2 N⌉ levels, beside the 8N bytes of the dense frequency vector — the
// curve EXPERIMENTS.md records — and holds it to the stated envelope: space
// grows with log N, not with N. It also finds where the sketch crosses
// under the dense vector: N ≈ 2^18.5 under sizing v2, held here to below
// 2^18 (2,040,000 B of sketch from N = 255,000 = 2^17.96).
func TestSpaceCurve(t *testing.T) {
	spaceAt := func(n uint64, levels int) int {
		o := confOptions
		o.N, o.Levels, o.Seed = n, levels, 7
		est, err := backend.Open(backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: o})
		if err != nil {
			t.Fatal(err)
		}
		return est.SpaceBytes()
	}
	h := core.EnvelopeFor(gfunc.F2Func(), confOptions.WithDefaults())
	t.Logf("%5s %12s %12s %14s", "N", "Levels: 0", "log2 N", "8N (dense)")
	for lg := 12; lg <= 30; lg += 2 {
		n := uint64(1) << lg
		def, full := spaceAt(n, 0), spaceAt(n, lg)
		t.Logf("2^%-3d %12d %12d %14d", lg, def, full, 8*n)
		o := confOptions.WithDefaults()
		o.N = n
		if bound := spaceEnvelope(o, h); def > full || full > bound {
			t.Errorf("N = 2^%d: SpaceBytes %d at the default depth, %d at log2 N levels, stated envelope %d", lg, def, full, bound)
		}
	}
	// The sketch is a step function of N and the vector a line: the last
	// N at which the vector is still the smaller is the break-even.
	lo, hi := uint64(1)<<12, uint64(1)<<20
	for lo+1 < hi {
		if mid := (lo + hi) / 2; spaceAt(mid, 0) > int(8*mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	t.Logf("break-even against the dense vector: N = %d = 2^%.2f (%d B)", hi, math.Log2(float64(hi)), spaceAt(hi, 0))
	if hi > 1<<18 {
		t.Errorf("the sketch is smaller than the dense vector only from N = %d, want from below 2^18", hi)
	}
}
