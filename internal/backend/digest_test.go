package backend

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/window"
)

// TestWindowStateDigest pins the full state of a `window` estimator (the
// clock and every live pane's onepass stack) after a fixed seeded ticked
// stream: 64 ticks through an 8-tick window of K = 2, so 4-tick panes
// open and expire many times over, fed as ragged batches and single
// turnstile updates at the current tick. It is the
// window's counterpart of core.TestOnePassStateDigest: a change to how
// the kind is built that moves these bytes moves its checkpoints and
// what its peers accept.
func TestWindowStateDigest(t *testing.T) {
	const want = "493cba333805680e4936912e2517abd6a7225a8bbea1334b0d7f2d93ffd275e0"
	est, err := Open(Spec{
		Kind:    KindWindow,
		G:       "x^2",
		Options: core.Options{N: 1 << 12, M: 1 << 10, Eps: 0.25, Lambda: 1.0 / 16, Seed: 0x44},
		Window:  window.Config{W: 8, K: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	win := est.(Windowed)
	rng := util.NewSplitMix64(0x57d16e57)
	for tick := uint64(0); tick < 64; tick += 1 + rng.Uint64n(2) {
		win.Advance(tick)
		batch := make([]stream.Update, rng.Uint64n(300))
		for i := range batch {
			batch[i] = stream.Update{Item: rng.Uint64n(1 << 12), Delta: int64(rng.Uint64n(7)) - 2}
		}
		est.UpdateBatch(batch)
		for i := rng.Uint64n(20); i > 0; i-- {
			est.Update(rng.Uint64n(64), int64(rng.Uint64n(201))-100)
		}
	}
	data, err := est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("state digest %s, want %s", got, want)
	}
}
