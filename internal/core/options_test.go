package core

import (
	"math"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/stream"
)

// TestDefaultLambdaFloor pins the documented λ default: at bench scales
// the Theorem 13 formula ε²/log³n falls below the floor, so WithDefaults
// must resolve λ to exactly DefaultLambdaFloor = 1/32. This is the
// regression test for the doc/code drift where the field comment claimed
// a 1/64 floor while the code floored at 1/32.
func TestDefaultLambdaFloor(t *testing.T) {
	if DefaultLambdaFloor != 1.0/32 {
		t.Fatalf("DefaultLambdaFloor = %v, want 1/32", DefaultLambdaFloor)
	}
	o := Options{N: 1 << 16, M: 1 << 10}.WithDefaults()
	logn := math.Log2(float64(1<<16) + 2)
	if formula := o.Eps * o.Eps / (logn * logn * logn); formula >= DefaultLambdaFloor {
		t.Fatalf("test premise broken: Theorem 13 λ %v is above the floor", formula)
	}
	if o.Lambda != DefaultLambdaFloor {
		t.Errorf("default λ = %v, want the floor %v", o.Lambda, DefaultLambdaFloor)
	}

	// An explicit λ must pass through untouched, floor or no floor.
	if o := (Options{N: 1 << 16, Lambda: 1.0 / 128}).WithDefaults(); o.Lambda != 1.0/128 {
		t.Errorf("explicit λ 1/128 resolved to %v", o.Lambda)
	}

	// A huge domain can push the formula above the floor; then the
	// formula value wins.
	o = Options{N: 1 << 2, Eps: 0.9}.WithDefaults()
	logn = math.Log2(float64(uint64(1)<<2) + 2)
	want := 0.9 * 0.9 / (logn * logn * logn)
	if want <= DefaultLambdaFloor {
		t.Fatalf("test premise broken: formula %v not above floor", want)
	}
	if o.Lambda != want {
		t.Errorf("formula λ = %v, want %v", o.Lambda, want)
	}
}

// TestTruncationIsIdentity: stopping the recursion where the tracker holds
// the sub-universe (Levels 0, recursive.Depth) changes no estimate. Once a
// level's cover is all of its sub-universe, CombineCovers is the identity
// on every level below it, so the sketch at the default depth and the
// sketch at the full ⌈log2 N⌉ levels — same seed, hence the same hash
// functions on the levels they share — return the same float, bit for
// bit: every one-pass tractable catalog function, two domain sizes, a flat
// and a skewed stream, two sketch seeds.
func TestTruncationIsIdentity(t *testing.T) {
	seeds := []uint64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, lg := range []int{14, 16} {
		n := uint64(1) << lg
		streams := map[string]*stream.Stream{
			"uniform": stream.Uniform(stream.GenConfig{N: n, M: 16, Seed: 5}, 1<<12),
			"zipf":    stream.Zipf(stream.GenConfig{N: n, M: 1 << 10, Seed: 5}, 1<<12, 1.1),
		}
		for _, entry := range gfunc.Catalog() {
			g := entry.Func
			if entry.WantOnePass != gfunc.Tractable {
				continue
			}
			for name, s := range streams {
				for _, seed := range seeds {
					opts := Options{N: n, M: 1 << 10, Lambda: 1.0 / 16, Seed: seed}
					opts.Envelope = EnvelopeFor(g, opts)
					shallow := NewOnePass(g, opts)
					opts.Levels = lg
					full := NewOnePass(g, opts)
					if shallow.sk.Levels() >= full.sk.Levels() {
						t.Fatalf("%s N=2^%d: default depth %d is not below the full %d", g.Name(), lg, shallow.sk.Levels(), full.sk.Levels())
					}
					shallow.Process(s)
					full.Process(s)
					if a, b := shallow.Estimate(), full.Estimate(); a != b {
						t.Errorf("%s N=2^%d %s seed %d: %v at %d levels, %v at %d", g.Name(), lg, name, seed,
							a, shallow.sk.Levels(), b, full.sk.Levels())
					}
				}
			}
		}
	}
}
