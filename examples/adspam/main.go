// Adspam: the Section 1.1.2 utility-aggregate application. An advertising
// service bills per click, but discounts users whose click counts look
// like bot traffic — a non-monotonic per-user fee g(clicks). The total
// bill Σ_users g(clicks_user) is a g-SUM over the click stream, estimated
// here in one pass with sub-polynomial space.
//
//	go run ./examples/adspam
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	universal "repro"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/util"
)

// fee is the per-user billing curve: linear in clicks up to a soft knee,
// then flattening and slowly discounting toward a floor — suspicious
// volumes earn a progressively smaller marginal fee, but the discount is
// only logarithmic so the curve stays slow-dropping (hence tractable,
// unlike a hard exponential cutoff; see examples/classify).
func fee(clicks uint64) float64 {
	x := float64(clicks)
	return x / (1 + math.Log2(1+x/1000))
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adspam:", err)
		os.Exit(1)
	}
}

// run holds the example body; it writes to w so the smoke tests can
// assert on the output.
func run(w io.Writer) error {
	const (
		nUsers = 1 << 14
		m      = 1 << 20
		seed   = 7
	)
	g := universal.Normalize("click-fee", fee)

	// Classify first: is this billing curve even sketchable?
	c := universal.Classify(g, universal.DefaultCheckConfig())
	fmt.Fprintln(w, c.String())
	fmt.Fprintln(w)

	// Click stream: 3000 regular users (tens to hundreds of clicks), a
	// handful of power users, and a few bots with huge click counts.
	rng := util.NewSplitMix64(seed)
	s := stream.New(nUsers)
	used := make(map[uint64]struct{})
	user := func() uint64 {
		for {
			u := rng.Uint64n(nUsers)
			if _, ok := used[u]; !ok {
				used[u] = struct{}{}
				return u
			}
		}
	}
	for i := 0; i < 3000; i++ {
		s.AddCopies(user(), 10+rng.Int63n(300))
	}
	for i := 0; i < 40; i++ {
		s.AddCopies(user(), 2000+rng.Int63n(8000))
	}
	for i := 0; i < 6; i++ {
		s.AddCopies(user(), 200000+rng.Int63n(400000)) // bots
	}

	// The exact bill keeps one (user, clicks) pair per user: 16 bytes each.
	clicks := s.Vector()
	truth := clicks.Sum(g.Eval)

	// The fee curve is not a catalog function, so the sketch is the
	// function-independent one (§1.1.1): a onepass Spec sized for the fee's
	// envelope, asked for the fee after the pass.
	opts := universal.Options{N: nUsers, M: m, Eps: 0.2, Seed: seed}
	opts.Envelope = core.EnvelopeFor(g, opts)
	est, err := universal.Open(universal.Spec{Kind: universal.KindOnePass, G: universal.F1().Name(), Options: opts})
	if err != nil {
		return err
	}
	if err := universal.Process(est, s); err != nil {
		return err
	}
	got := est.(universal.FuncQuerier).EstimateFor(g)

	fmt.Fprintf(w, "total fee (exact):    %12.1f fee-units  (space %d B)\n", truth*fee(1), 16*clicks.F0())
	fmt.Fprintf(w, "total fee (sketched): %12.1f fee-units  (space %d B)\n", got*fee(1), est.SpaceBytes())
	fmt.Fprintf(w, "relative error: %.4f (target 0.2)\n", util.RelErr(got, truth))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "the discount makes g non-monotonic in marginal terms; the paper's")
	fmt.Fprintln(w, "characterization says the sum is still 1-pass sketchable because the")
	fmt.Fprintln(w, "curve is slow-jumping, slow-dropping, and predictable.")
	return nil
}
