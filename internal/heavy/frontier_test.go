package heavy_test

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/workload"
)

// The sizing frontier: what does the (ε, δ) guarantee cost in bytes? The
// referee (backend.TestConformance) holds the shipped sizing to the
// theorem; this walks the sizings below it until the theorem stops
// holding, and EXPERIMENTS.md ("Spending the ledger", rounds 4 and 6)
// records where heavy.dims' constants sit against that knee. Seeded and on one
// goroutine, so a rerun prints the same table. It runs about 25 minutes, so
// only when asked: go test ./internal/heavy -run TestSizingFrontier
// -frontier -v -timeout 90m (CI's nightly job).
var frontier = flag.Bool("frontier", false, "run TestSizingFrontier (about 25 minutes)")

// frontierSeeds is the number of sketch seeds per cell.
const frontierSeeds = 40

// frontierAlpha is the level of the one-sided lower confidence bound a
// rate has to clear 1 − δ with: 40 of 40 seeds bound the rate below by
// 0.928, 37 of 40 by 0.818, 36 of 40 by 0.787 — out.
const frontierAlpha = 0.05

// frontierOptions are the referee's (confOptions: ε = 0.25, δ = 0.2,
// λ = 1/16 on a 2^14 domain) with the promise M widened to cover the
// needle's and the embedded trace's frequencies at this stream length.
var frontierOptions = core.Options{N: 1 << 14, M: 1 << 15, Eps: 0.25, Lambda: 1.0 / 16}

var frontierStream = workload.Config{N: 1 << 14, Items: 1 << 12, Length: 1 << 14, Seed: 1}

// The walk's axes, from sizing v2 outward. Width is in units of sizing
// v2's bucket terms (see heavy.SetSizing): layout version 4 shipped 1,
// version 5 ships 0.5.
var (
	frontierWidths   = []float64{1, 0.5, 0.25, 0.125}
	frontierRows     = []int{7, 5, 3}
	frontierTrackers = []float64{2, 1, 0.5}
)

type sizingPoint struct {
	rows           int
	width, tracker float64
}

func (p sizingPoint) String() string {
	return fmt.Sprintf("rows %d width %-4v tracker %-3v", p.rows, p.width, p.tracker)
}

// rates counts, over the seeds of one cell, the theorem's events: t is the
// estimate inside εG (Theorems 2/3), cover heavy.CoverEvents' three.
type rates struct {
	seeds, t int
	cover    [3]int
	bytes    int
}

// clears reports whether the lower bounds of T, H and aggregate D clear p.
func (r rates) clears(p float64) bool {
	return lowerBound(min(r.t, r.cover[heavy.EvH], r.cover[heavy.EvAgg]), r.seeds) >= p
}

func (r rates) String() string {
	cell := func(k int) string { return fmt.Sprintf("%2d/%d (≥%.3f)", k, r.seeds, lowerBound(k, r.seeds)) }
	return fmt.Sprintf("%8d B  T %s  H %s  aggD %s  D %s",
		r.bytes, cell(r.t), cell(r.cover[heavy.EvH]), cell(r.cover[heavy.EvAgg]), cell(r.cover[heavy.EvD]))
}

// lowerBound is the one-sided Clopper–Pearson bound: the success rate p
// at which k or more successes in n trials has probability frontierAlpha.
func lowerBound(k, n int) float64 {
	if k == 0 {
		return 0
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 50; i++ {
		if mid := (lo + hi) / 2; heavy.BinomialTail(n, k, mid) < frontierAlpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// frontierFuncs is the catalog's one-pass tractable side, as the referee
// has it.
func frontierFuncs() []gfunc.Func {
	var out []gfunc.Func
	for _, e := range gfunc.Catalog() {
		if e.WantOnePass == gfunc.Tractable {
			out = append(out, e.Func)
		}
	}
	return out
}

// cell is one (g, stream) pair of the table: the stream as something that
// can be replayed in batches, and the exact answers to score against.
type cell struct {
	g     gfunc.Func
	opts  core.Options   // defaults resolved, Envelope measured
	s     *stream.Stream // nil when the stream is only ever replayed
	feed  func(sink func([]stream.Update))
	freq  func(item uint64) int64
	exact float64
	want  heavy.Cover
}

func streamCell(g gfunc.Func, opts core.Options, s *stream.Stream) cell {
	o := opts.WithDefaults()
	o.Envelope = core.EnvelopeFor(g, o) // measured once: the scan over [1, M] is most of a small sketch's set-up
	freqs := s.Vector()
	return cell{g: g, opts: o, s: s,
		feed:  func(sink func([]stream.Update)) { sink(s.Updates()) },
		freq:  func(it uint64) int64 { return freqs[it] },
		exact: heavy.GSumExact(g, freqs), want: heavy.ExactHeavy(g, o.Lambda, freqs)}
}

// measure runs the cell at one sizing over frontierSeeds sketch seeds.
func (c cell) measure(p sizingPoint, copies int) rates {
	defer heavy.SetSizing(p.rows, p.width, p.tracker)()
	o := c.opts
	r := rates{seeds: frontierSeeds}
	for seed := uint64(1); seed <= frontierSeeds; seed++ {
		// T: the whole stack. copies > 1 is Theorem 44's amplification,
		// the median of independent sketches.
		ests := make([]float64, copies)
		rng := util.NewSplitMix64(seed)
		r.bytes = 0
		for i := range ests {
			oc := o
			oc.Seed = seed
			if copies > 1 {
				oc.Seed = rng.Next()
			}
			e := core.NewOnePass(c.g, oc)
			c.feed(e.UpdateBatch)
			ests[i] = e.Estimate()
			r.bytes += e.SpaceBytes()
		}
		if math.Abs(util.MedianFloat64(ests)-c.exact) <= o.Eps*c.exact {
			r.t++
		}
		// H, D: one level-0 heavy-hitter sketch of the same configuration.
		lv := heavy.NewOnePass(heavy.OnePassConfig{G: c.g, Lambda: o.Lambda, Eps: o.Eps, Delta: o.Delta,
			H: o.Envelope, WidthFactor: o.WidthFactor}, util.NewSplitMix64(seed*31))
		c.feed(lv.UpdateBatch)
		for ev, ok := range heavy.CoverEvents(c.g, lv.Cover(), c.want, c.freq, o.Eps, c.exact) {
			if ok {
				r.cover[ev]++
			}
		}
	}
	return r
}

// walk measures the lattice of sizings from the largest outward, visiting
// a sizing only if every sizing one step larger on some axis cleared
// 1 − δ, and returns what it measured.
func walk(cell func(sizingPoint) rates, target float64) map[sizingPoint]rates {
	got := map[sizingPoint]rates{}
	for _, w := range frontierWidths {
		for ri, rows := range frontierRows {
			for ti, tr := range frontierTrackers {
				p := sizingPoint{rows, w, tr}
				larger := []sizingPoint{}
				if w != frontierWidths[0] {
					larger = append(larger, sizingPoint{rows, w * 2, tr})
				}
				if ri > 0 {
					larger = append(larger, sizingPoint{frontierRows[ri-1], w, tr})
				}
				if ti > 0 {
					larger = append(larger, sizingPoint{rows, w, frontierTrackers[ti-1]})
				}
				open := true
				for _, q := range larger {
					if r, ok := got[q]; !ok || !r.clears(target) {
						open = false
					}
				}
				if open {
					got[p] = cell(p)
				}
			}
		}
	}
	return got
}

// tally is a sizing's record over the (g, workload) cells that reached it:
// how many cleared 1 − δ, and the binding cell — the lowest of T, H and
// aggregate D.
type tally struct {
	cells, cleared, low, perEntry int
	where                         string
}

func (b *tally) add(where string, r rates, target float64) {
	if b.cells == 0 {
		b.low, b.perEntry = r.seeds, r.seeds
	}
	b.cells++
	if r.clears(target) {
		b.cleared++
	}
	for _, ev := range []struct {
		name string
		k    int
	}{{"T", r.t}, {"H", r.cover[heavy.EvH]}, {"aggD", r.cover[heavy.EvAgg]}} {
		if ev.k < b.low {
			b.low, b.where = ev.k, ev.name+" on "+where
		}
	}
	b.perEntry = min(b.perEntry, r.cover[heavy.EvD])
}

func (b *tally) String() string {
	return fmt.Sprintf("reached by %3d cells, cleared by %3d; lowest %2d (%s); lowest per-entry D %2d", b.cells, b.cleared, b.low, b.where, b.perEntry)
}

// frontierKnee is where the later tables look: sizing v2, layout version
// 4's sizing (v2's width in 5 rows), the shipped one (half that width) and
// the sizings around and under it, down to the knee at a quarter of v2's
// width and the eighth under it.
var frontierKnee = []sizingPoint{{7, 1, 2}, {5, 1, 2}, {7, 0.5, 2}, {5, 0.5, 2}, {3, 0.5, 2}, {5, 0.25, 2}, {3, 0.25, 2}, {5, 0.125, 2}}

func TestSizingFrontier(t *testing.T) {
	if !*frontier {
		t.Skip("the sizing frontier runs about 25 minutes; pass -frontier")
	}
	const seeds = frontierSeeds
	target := 1 - frontierOptions.WithDefaults().Delta
	funcs := frontierFuncs()
	streams := map[string]*stream.Stream{}
	for _, w := range workload.Generators() {
		s := w.Generate(frontierStream)
		if m := s.Vector().MaxAbs(); m > frontierOptions.M {
			t.Fatalf("%s: a frequency of %d breaks the promise M = %d", w.Name(), m, frontierOptions.M)
		}
		streams[w.Name()] = s
	}
	// each visits the (workload, g) cells in catalog order.
	each := func(opts core.Options, fn func(where string, c cell)) {
		for _, w := range workload.Generators() {
			for _, g := range funcs {
				fn(fmt.Sprintf("%-11s %-19s", w.Name(), g.Name()), streamCell(g, opts, streams[w.Name()]))
			}
		}
	}

	// The lattice at the referee's options.
	t.Run("walk", func(t *testing.T) {
		tallies := map[sizingPoint]*tally{}
		each(frontierOptions, func(where string, c cell) {
			got := walk(func(p sizingPoint) rates { return c.measure(p, 1) }, target)
			points := make([]sizingPoint, 0, len(got))
			for p := range got {
				points = append(points, p)
			}
			sort.Slice(points, func(i, j int) bool { return got[points[i]].bytes > got[points[j]].bytes })
			smallest := -1
			for i, p := range points {
				t.Logf("%s %s  %s", where, p, got[p])
				if tallies[p] == nil {
					tallies[p] = &tally{}
				}
				tallies[p].add(where, got[p], target)
				if got[p].clears(target) {
					smallest = i
				}
			}
			if smallest < 0 {
				t.Errorf("%s: no sizing clears 1 − δ, sizing v2 included", where)
				return
			}
			t.Logf("%s smallest clearing %v: %s, %d B", where, target, points[smallest], got[points[smallest]].bytes)
		})
		for _, w := range frontierWidths {
			for _, rows := range frontierRows {
				for _, tr := range frontierTrackers {
					if b := tallies[sizingPoint{rows, w, tr}]; b != nil {
						t.Logf("%s  %s", sizingPoint{rows, w, tr}, b)
					}
				}
			}
		}
	})

	// The knee at the λ on either side of the referee's.
	t.Run("lambda", func(t *testing.T) {
		for _, lambda := range []float64{1.0 / 8, 1.0 / 32} {
			opts := frontierOptions
			opts.Lambda = lambda
			tallies := make([]tally, len(frontierKnee))
			each(opts, func(where string, c cell) {
				for i, p := range frontierKnee {
					r := c.measure(p, 1)
					if !r.clears(target) {
						t.Logf("λ = 1/%v %s %s  %s", 1/lambda, where, p, r)
					}
					tallies[i].add(where, r, target)
				}
			})
			for i, p := range frontierKnee {
				t.Logf("λ = 1/%-2v %s  %s", 1/lambda, p, &tallies[i])
			}
		}
	})

	// The knee at the benchmark's scale: x² over a 2^20 domain.
	t.Run("n20", func(t *testing.T) {
		opts := frontierOptions
		opts.N = 1 << 20
		for _, w := range []workload.Generator{workload.Uniform{}, workload.Zipf{Alpha: 1.1}} {
			c := streamCell(gfunc.F2Func(), opts, w.Generate(workload.Config{N: opts.N, Items: 1 << 18, Length: 1 << 20, Seed: 1}))
			for _, p := range frontierKnee {
				t.Logf("N = 2^20 %-8s x^2 %s  %s", w.Name(), p, c.measure(p, 1))
			}
		}
	})

	// Past it, where the flat stream binds: every one of 2^22 items once,
	// over a 2^24 domain. Nothing is heavy, the cover should be empty, and
	// the tracked candidates are the largest of 2^22 noisy estimates — the
	// cell a sizing's pruning window (OnePass.ErrorWindow) has to survive,
	// at the shipped width and at half of it, the knee. Replayed in
	// batches: the stream is never held, nor its vector.
	t.Run("n22", func(t *testing.T) {
		const items = 1 << 22
		g := gfunc.F2Func()
		o := frontierOptions
		o.N = 1 << 24
		o = o.WithDefaults()
		o.Envelope = core.EnvelopeFor(g, o)
		c := cell{g: g, opts: o, exact: items * g.Eval(1),
			freq: func(it uint64) int64 {
				if it < items {
					return 1
				}
				return 0
			},
			feed: func(sink func([]stream.Update)) {
				batch := make([]stream.Update, 1<<12)
				for base := uint64(0); base < items; base += uint64(len(batch)) {
					for i := range batch {
						batch[i] = stream.Update{Item: base + uint64(i), Delta: 1}
					}
					sink(batch)
				}
			}}
		for _, p := range []sizingPoint{{5, 1, 2}, {5, 0.5, 2}, {5, 0.25, 2}, {5, 0.125, 2}} {
			r := c.measure(p, 1)
			t.Logf("N = 2^24 flat 2^22 x^2 %s  %s", p, r)
			if p.width >= 0.25 && !r.clears(target) {
				t.Errorf("the flat stream misses 1 − δ at %s, half the shipped width or more", p)
			}
		}
	})

	// Algorithm 1's sketch goes through the same dims (λ/2, ε = 1/3, δ
	// whole): 5 rows of 32·H/λ buckets, rounded. Its covers carry exact
	// weights, so only T, and only downward from the shipped sizing.
	t.Run("twopass", func(t *testing.T) {
		for _, p := range []sizingPoint{{5, 1, 2}, {5, 0.5, 2}, {3, 0.5, 2}, {5, 0.25, 2}, {3, 0.25, 2}, {5, 0.125, 2}} {
			restore := heavy.SetSizing(p.rows, p.width, p.tracker)
			cleared, hits, low, where, bytes := 0, 0, seeds, "", 0
			each(frontierOptions, func(name string, c cell) {
				k := 0
				o := c.opts
				for seed := uint64(1); seed <= seeds; seed++ {
					o.Seed = seed
					e := core.NewTwoPass(c.g, o)
					if bytes = e.SpaceBytes(); math.Abs(e.Run(c.s)-c.exact) <= o.Eps*c.exact {
						k++
					}
				}
				hits += k
				if lowerBound(k, seeds) >= target {
					cleared++
				}
				if k < low {
					low, where = k, name
				}
			})
			restore()
			t.Logf("twopass %s  T clears 1 − δ on %3d of 100 cells, %4d of %d estimates inside εG, lowest %2d (%s); last cell's sketch %d B",
				p, cleared, hits, 100*seeds, low, where, bytes)
		}
	})

	// Amplification, settled: at equal bytes, the median of 3 sketches of
	// r rows (Theorem 44's route) against one sketch of 3r rows, at widths
	// narrow enough that either misses. T only — a cover has no median.
	t.Run("amplify", func(t *testing.T) {
		for _, width := range []float64{1.0 / 16, 1.0 / 32, 1.0 / 64} {
			for _, rows := range []int{3, 5} {
				var cleared, hits [2]int
				each(frontierOptions, func(where string, c cell) {
					for i, r := range []rates{
						c.measure(sizingPoint{3 * rows, width, 2}, 1),
						c.measure(sizingPoint{rows, width, 2}, 3),
					} {
						hits[i] += r.t
						if lowerBound(r.t, seeds) >= target {
							cleared[i]++
						}
					}
				})
				t.Logf("width %-7v one sketch of %2d rows: T clears 1 − δ on %3d cells, %4d estimates inside εG; the median of 3 sketches of %d rows: %3d cells, %4d estimates",
					width, 3*rows, cleared[0], hits[0], rows, cleared[1], hits[1])
			}
		}
	})
}
