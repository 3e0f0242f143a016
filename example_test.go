package universal_test

// Doc examples for the public API. `go test` compiles and runs these
// (and CI's docs gate runs them explicitly), so every snippet shown in
// godoc is guaranteed to build and to print exactly what it claims —
// the outputs are deterministic because all randomness flows from the
// explicit seeds.

import (
	"fmt"

	universal "repro"
)

// ExampleOpen is the unified front door: a Spec describes any estimator
// in the repository, Open builds it, and equal Specs fingerprint (and
// sketch) identically — the contract distributed deployments verify
// before merging snapshots.
func ExampleOpen() {
	spec := universal.Spec{
		Kind:    universal.KindOnePass,
		G:       "x^2",
		Options: universal.Options{N: 1 << 10, M: 16, Seed: 1},
	}
	est, err := universal.Open(spec)
	if err != nil {
		panic(err)
	}
	s := universal.NewStream(1 << 10)
	for i := uint64(0); i < 64; i++ {
		s.Add(i, int64(i%8)+1) // frequencies 1..8
	}
	if err := universal.Process(est, s); err != nil {
		panic(err)
	}

	exact, err := universal.Open(universal.Spec{Kind: universal.KindExact, G: "x^2",
		Options: universal.Options{N: 1 << 10, Seed: 1}})
	if err != nil {
		panic(err)
	}
	if err := universal.Process(exact, s); err != nil {
		panic(err)
	}
	drifted := spec
	drifted.Options.Seed = 2
	fmt.Printf("exact %.0f, estimate within 25%%: %v\n",
		exact.Estimate(), within(est.Estimate(), exact.Estimate(), 0.25))
	fmt.Printf("same spec merges: %v; drifted seed merges: %v\n",
		spec.Fingerprint() == spec.Fingerprint(),
		spec.Fingerprint() == drifted.Fingerprint())
	// Output:
	// exact 1632, estimate within 25%: true
	// same spec merges: true; drifted seed merges: false
}

// ExampleOpen_onePass estimates F2 = Σ v_i² in one pass over a small
// turnstile stream and compares against the exact sum.
func ExampleOpen_onePass() {
	s := universal.NewStream(1 << 10) // domain [0, 1024)
	for i := uint64(0); i < 64; i++ {
		s.Add(i, int64(i%8)+1) // frequencies 1..8
	}
	s.Add(3, 2)
	s.Add(3, -2) // turnstile: deletions cancel

	est := mustOpen(universal.Spec{Kind: universal.KindOnePass, G: "x^2", // g(x) = x²
		Options: universal.Options{N: 1 << 10, M: 16, Seed: 1}}, s)
	exact := mustOpen(universal.Spec{Kind: universal.KindExact, G: "x^2", Options: universal.Options{N: 1 << 10}}, s)
	fmt.Printf("exact %.0f, estimate within 25%%: %v\n",
		exact.Estimate(), within(est.Estimate(), exact.Estimate(), 0.25))
	// Output:
	// exact 1632, estimate within 25%: true
}

// ExampleClassify runs the paper's zero-one laws on two catalog
// functions: x² is one-pass tractable, 1/x is not even two-pass.
func ExampleClassify() {
	cfg := universal.DefaultCheckConfig()
	cfg.M = 1 << 12 // small witness range keeps the example fast

	for _, g := range []universal.Func{universal.F2(), universal.Reciprocal()} {
		c := universal.Classify(g, cfg)
		fmt.Printf("%s: one-pass %v, two-pass %v\n", g.Name(), c.OnePass, c.TwoPass)
	}
	// Output:
	// x^2: one-pass tractable, two-pass tractable
	// 1/x: one-pass intractable, two-pass intractable
}

// ExampleFuncQuerier answers post-hoc g-SUM queries from one
// function-independent sketch (the §1.1.1 application): a one-pass
// sketch sized for the family's largest envelope, queried afterwards for
// any function in the family.
func ExampleFuncQuerier() {
	s := universal.NewStream(1 << 10)
	for i := uint64(0); i < 100; i++ {
		s.Add(i, int64(i%4)+1)
	}
	est, err := universal.Open(universal.Spec{Kind: universal.KindOnePass, G: "x^2",
		Options: universal.Options{N: 1 << 10, M: 8, Seed: 7, Envelope: 16}})
	if err != nil {
		panic(err)
	}
	if err := universal.Process(est, s); err != nil {
		panic(err)
	}

	exactF1 := mustOpen(universal.Spec{Kind: universal.KindExact, G: universal.F1().Name(),
		Options: universal.Options{N: 1 << 10}}, s)
	f1 := est.(universal.FuncQuerier).EstimateFor(universal.F1())
	fmt.Printf("F1 exact %.0f, post-hoc estimate within 25%%: %v\n",
		exactF1.Estimate(), within(f1, exactF1.Estimate(), 0.25))
	// Output:
	// F1 exact 250, post-hoc estimate within 25%: true
}

// ExampleWindowed estimates F2 over only the last 4 ticks of a stream:
// early traffic expires as the clock advances, so the windowed estimate
// tracks the recent suffix, not the whole history.
func ExampleWindowed() {
	spec := universal.Spec{Kind: universal.KindWindow, G: "x^2",
		Options: universal.Options{N: 1 << 10, M: 1 << 10, Seed: 2}}
	spec.Window.W = 4
	est := mustOpen(spec, universal.NewStream(1<<10))
	win := est.(universal.Windowed)
	// Ticks 0..9: at tick t, items 0..15 each arrive once.
	for tick := uint64(0); tick < 10; tick++ {
		win.Advance(tick)
		for i := uint64(0); i < 16; i++ {
			est.Update(i, 1)
		}
	}
	// The window covers ticks 6..9 (plus the Stale ticks its oldest
	// bucket still carries): each item has frequency 4..4+Stale there,
	// far below its all-time frequency 10.
	wholeStream := 16 * float64(10*10)
	windowOnly := 16 * float64(4*4)
	maxCovered := 16 * float64((4+win.Stale())*(4+win.Stale()))
	estimate := est.Estimate()
	fmt.Printf("estimate in [window, window+stale]: %v\n",
		estimate >= windowOnly && estimate <= maxCovered)
	fmt.Printf("well below whole-stream F2: %v\n", estimate < wholeStream/2)
	// Output:
	// estimate in [window, window+stale]: true
	// well below whole-stream F2: true
}

// mustOpen opens spec and ingests s through it.
func mustOpen(spec universal.Spec, s *universal.Stream) universal.Estimator {
	est, err := universal.Open(spec)
	if err != nil {
		panic(err)
	}
	if err := universal.Process(est, s); err != nil {
		panic(err)
	}
	return est
}

// within reports |est - exact| <= frac * exact.
func within(est, exact, frac float64) bool {
	diff := est - exact
	if diff < 0 {
		diff = -diff
	}
	return diff <= frac*exact
}
