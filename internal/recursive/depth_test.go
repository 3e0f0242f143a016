package recursive_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/recursive"
	"repro/internal/util"
)

// TestDepthRule holds recursive.Depth to its definition — ⌈log2(n/cap)⌉ + 1
// levels, at most ⌈log2 n⌉, at least 1, at most 30 — and to its corners:
// an explicit level count wins, and capacity 0 (unknown) keeps the full
// depth.
func TestDepthRule(t *testing.T) {
	// want[i][j] is the depth for ns[i] over a tracker of caps[j].
	ns := []uint64{1, 2, 385, 386, 1 << 14, 1 << 20, 1 << 30, 1 << 40}
	caps := []int{1, 13, 385, 2306}
	want := [][]int{
		{1, 1, 1, 1},
		{1, 1, 1, 1},
		{9, 6, 1, 1},
		{9, 6, 2, 1},
		{14, 12, 7, 4},
		{20, 18, 13, 10},
		{30, 28, 23, 20},
		{30, 30, 30, 30},
	}
	for i, n := range ns {
		for j, c := range caps {
			if got := recursive.Depth(n, 0, c); got != want[i][j] {
				t.Errorf("Depth(%d, 0, %d) = %d, want %d", n, c, got, want[i][j])
			}
		}
		full := max(1, min(util.Log2Ceil(n), 30))
		if got := recursive.Depth(n, 0, 0); got != full {
			t.Errorf("Depth(%d, 0, 0) = %d, want the full %d: nothing says where the recursion may stop", n, got, full)
		}
	}
	for _, tc := range []struct{ levels, want int }{{1, 1}, {7, 7}, {20, 20}, {30, 30}, {31, 30}, {64, 30}} {
		if got := recursive.Depth(1<<20, tc.levels, 385); got != tc.want {
			t.Errorf("Depth(2^20, %d, 385) = %d, want %d: an explicit depth wins", tc.levels, got, tc.want)
		}
	}
}

// TestStacksAgreeOnDepth: the two stacks — recursive.Sketch (the onepass
// estimator, post-hoc queries included) and recursive.TwoPass — resolve
// Levels 0 through the one rule, each from its own level sketcher's capacity, and write the depth
// back where the fingerprint reads it, so Levels 0 and the depth it
// resolves to are one sketch.
func TestStacksAgreeOnDepth(t *testing.T) {
	g := gfunc.F2Func()
	// The benchmark's options: trackers of 2H/(λ/3) + 1 = 385 one-pass and
	// 2H/(λ/2) + 1 = 257 two-pass candidates over N = 2^20 — the sizing
	// frontier left heavy.dims' tracker where it was (a smaller one is a
	// deeper stack, and more bytes), so the depths are sizing v2's while a
	// level went from 7 rows of 4096 to 5, and then to 5 of 2048.
	opts := core.Options{N: 1 << 20, M: 1 << 12, Eps: 0.25, Lambda: 1.0 / 16, Seed: 7}
	opts.Envelope = core.EnvelopeFor(g, opts)
	one := heavy.NewOnePass(heavy.OnePassConfig{G: g, Lambda: opts.Lambda, Eps: 0.25, Delta: 0.2, H: opts.Envelope}, util.NewSplitMix64(1))
	two := heavy.NewTwoPass(heavy.TwoPassConfig{G: g, Lambda: opts.Lambda, Delta: 0.2, H: opts.Envelope}, util.NewSplitMix64(1))
	if one.Capacity() != 385 || two.Capacity() != 257 {
		t.Fatalf("capacities %d and %d, want 385 and 257", one.Capacity(), two.Capacity())
	}
	if rows, buckets := one.Dims(); rows != 5 || buckets != 2048 {
		t.Fatalf("a one-pass level of %d rows × %d buckets, want 5 × 2048", rows, buckets)
	}
	wantOne, wantTwo := recursive.Depth(opts.N, 0, 385), recursive.Depth(opts.N, 0, 257)
	if wantOne != 13 || wantTwo != 13 {
		t.Fatalf("depths %d and %d, want 13 and 13", wantOne, wantTwo)
	}

	sk := recursive.New(recursive.Config{N: opts.N, MakeSketcher: func(int) heavy.Sketcher {
		return heavy.NewOnePass(heavy.OnePassConfig{G: g, Lambda: opts.Lambda, Eps: 0.25, Delta: 0.2, H: opts.Envelope}, util.NewSplitMix64(1))
	}}, util.NewSplitMix64(2))
	if sk.Levels() != wantOne {
		t.Errorf("recursive.Sketch: %d levels, want %d", sk.Levels(), wantOne)
	}
	tp := recursive.NewTwoPass(recursive.TwoPassConfig{N: opts.N, MakeSketcher: func(int) *heavy.TwoPass {
		return heavy.NewTwoPass(heavy.TwoPassConfig{G: g, Lambda: opts.Lambda, Delta: 0.2, H: opts.Envelope}, util.NewSplitMix64(1))
	}}, util.NewSplitMix64(2))
	if tp.Levels() != wantTwo {
		t.Errorf("recursive.TwoPass: %d levels, want %d", tp.Levels(), wantTwo)
	}
	explicit := recursive.New(recursive.Config{N: opts.N, Levels: 5, MakeSketcher: func(int) heavy.Sketcher {
		return heavy.NewOnePass(heavy.OnePassConfig{G: g, Lambda: opts.Lambda, Eps: 0.25, Delta: 0.2, H: opts.Envelope}, util.NewSplitMix64(1))
	}}, util.NewSplitMix64(2))
	if explicit.Levels() != 5 {
		t.Errorf("explicit Levels 5: %d levels", explicit.Levels())
	}

	// Through core: Levels 0 and the resolved depth are the same sketch —
	// same space, same fingerprint, each other's snapshots.
	resolved := opts
	resolved.Levels = wantOne
	perLevel := one.SpaceBytes()
	a, b := core.NewOnePass(g, opts), core.NewOnePass(g, resolved)
	if a.SpaceBytes() != (wantOne+1)*perLevel || a.Fingerprint() != b.Fingerprint() {
		t.Errorf("onepass: Levels 0 holds %d B under fingerprint %#x; Levels %d holds %d B under %#x; want %d B and one fingerprint",
			a.SpaceBytes(), a.Fingerprint(), wantOne, b.SpaceBytes(), b.Fingerprint(), (wantOne+1)*perLevel)
	}
	a.Update(3, 5)
	snap, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalBinary(snap); err != nil {
		t.Errorf("a Levels %d estimator refused a Levels 0 snapshot: %v", wantOne, err)
	}
	resolved.Levels = wantTwo
	ta, tb := core.NewTwoPass(g, opts), core.NewTwoPass(g, resolved)
	if ta.SpaceBytes() != (wantTwo+1)*two.SpaceBytes() || ta.Fingerprint() != tb.Fingerprint() {
		t.Errorf("twopass: Levels 0 holds %d B under fingerprint %#x; Levels %d holds %d B under %#x; want %d B and one fingerprint",
			ta.SpaceBytes(), ta.Fingerprint(), wantTwo, tb.SpaceBytes(), tb.Fingerprint(), (wantTwo+1)*two.SpaceBytes())
	}
}
