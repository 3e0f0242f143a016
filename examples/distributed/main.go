// Distributed: the paper's sketches are linear, so g-SUM estimation
// distributes for free — shard the stream across workers, sketch each
// shard from the same Spec, merge. This example shows three faces of
// that fact:
//
//   - the sharded kind (Kind: "sharded"), whose Process routes the
//     stream by item hash across persistent worker shards and merges
//     them on Estimate, producing the SAME estimate as a serial run;
//
//   - manual multi-machine style sharding: every "machine" opens the
//     same Spec, sketches its own shard, and a coordinator folds the
//     shards with universal.Merge — including turnstile cancellation,
//     where deletions on one shard cancel insertions on another;
//
//   - the Spec fingerprint, the value distributed deployments exchange
//     to prove their configurations match before shipping snapshots.
//
//     go run ./examples/distributed
package main

import (
	"fmt"
	"io"
	"os"

	universal "repro"
	"repro/internal/stream"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

// run holds the example body; it writes to w so the smoke tests can
// assert on the output.
func run(w io.Writer) error {
	const (
		n       = 1 << 12
		m       = 1 << 10
		shards  = 4
		workers = 4
		seed    = 123
	)
	spec := universal.Spec{
		Kind:    universal.KindOnePass,
		G:       universal.F2().Name(),
		Options: universal.Options{N: n, M: m, Eps: 0.25, Seed: seed, Lambda: 1.0 / 16},
	}

	// 90 distinct items keeps the candidate trackers inside the regime
	// where merged and serial estimates agree bit-for-bit.
	full := stream.Zipf(stream.GenConfig{N: n, M: m, Seed: 9}, 90, 1.1)
	fmt.Fprintf(w, "stream: %d updates, %d distinct items\n",
		full.Len(), full.Vector().F0())

	// Single-machine serial reference.
	single, err := universal.Open(spec)
	if err != nil {
		return err
	}
	if err := universal.Process(single, full); err != nil {
		return err
	}

	// The sharded kind: same Spec plus Workers. Same Seed => same hash
	// functions; hash-routed shards; linearity-based merge.
	sspec := spec
	sspec.Kind = universal.KindSharded
	sspec.Workers = workers
	inproc, err := universal.Open(sspec)
	if err != nil {
		return err
	}
	if err := universal.Process(inproc, full); err != nil {
		return err
	}

	exact, err := universal.Open(universal.Spec{Kind: universal.KindExact, G: spec.G,
		Options: universal.Options{N: n, M: m, Seed: seed}})
	if err != nil {
		return err
	}
	if err := universal.Process(exact, full); err != nil {
		return err
	}

	fmt.Fprintf(w, "exact          : %.6g\n", exact.Estimate())
	fmt.Fprintf(w, "serial 1-pass  : %.6g\n", single.Estimate())
	fmt.Fprintf(w, "sharded x%d     : %.6g\n", workers, inproc.Estimate())
	if inproc.Estimate() == single.Estimate() {
		fmt.Fprintln(w, "sharded == serial: exact agreement (linearity + same seed)")
	} else {
		return fmt.Errorf("sharded %.17g diverged from serial %.17g",
			inproc.Estimate(), single.Estimate())
	}

	// Manual sharding, multi-machine style: each "machine" opens the SAME
	// Spec (that is the whole seed-discipline rule), sketches its own
	// shard, and a coordinator merges everything into shard 0.
	sharded := make([]universal.Estimator, shards)
	for i := range sharded {
		if sharded[i], err = universal.Open(spec); err != nil {
			return err
		}
	}
	i := 0
	full.Each(func(u stream.Update) {
		sharded[i%shards].Update(u.Item, u.Delta)
		i++
	})
	for _, worker := range sharded[1:] {
		if err := universal.Merge(sharded[0], worker); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "merged shards  : %.6g (round-robin split, coordinator merge)\n",
		sharded[0].Estimate())

	// The fingerprint two daemons would exchange before merging: a Spec
	// built independently from the same fields (as a second machine
	// would build it) agrees, and changing any field (here the seed)
	// breaks it.
	twin := universal.Spec{
		Kind:    universal.KindOnePass,
		G:       universal.F2().Name(),
		Options: universal.Options{N: n, M: m, Eps: 0.25, Seed: seed, Lambda: 1.0 / 16},
	}
	drifted := spec
	drifted.Options.Seed = seed + 1
	fmt.Fprintln(w)
	fmt.Fprintf(w, "spec fingerprints: independently built spec match = %v, drifted seed match = %v\n",
		spec.Fingerprint() == twin.Fingerprint(), spec.Fingerprint() == drifted.Fingerprint())

	fmt.Fprintln(w, "turnstile cancellation across shards:")
	x, err := universal.Open(spec)
	if err != nil {
		return err
	}
	y, err := universal.Open(spec)
	if err != nil {
		return err
	}
	x.Update(42, 500)  // worker X sees the insert
	y.Update(42, -500) // worker Y sees the delete
	y.Update(7, 3)
	if err := universal.Merge(x, y); err != nil {
		return err
	}
	fmt.Fprintf(w, "  merged estimate: %.4g (want 9: the ±500 cancels)\n", x.Estimate())
	return nil
}
