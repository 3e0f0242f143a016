package workload

import (
	"fmt"

	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/xhash"
)

// Adversarial is the anti-sketch scenario: it re-derives the row hash
// functions a CountSketch seeded with SketchSeed would draw
// (the construction in internal/sketch.NewCountSketch is a pure
// function of the seed, which is exactly the property this attack
// weaponizes), picks a victim item, and then scans the domain for
// decoys that collide with the victim — same bucket, same sign — in
// each row. The decoys carry a large share of the stream, so every row
// counter the victim hashes into is polluted and the median point query
// for the victim is driven far from its true frequency. Against a
// sketch with a different seed the stream is just another skewed
// workload; against the seeded one it is the worst case the paper's
// randomized guarantees exclude only with probability delta.
type Adversarial struct {
	// SketchSeed is the Options.Seed of the CountSketch under attack
	// (0 = cfg.Seed*7, the sketch-seed convention of `gsum bench` and
	// `gsum sweep`).
	SketchSeed uint64
	// Rows and Buckets mirror the target sketch's dimensions
	// (0 = the countsketch kind's defaults: 5 rows, 1024 buckets).
	Rows    int
	Buckets uint64
	// CollidersPerRow is how many decoys the scan keeps per row
	// (default 8; fewer if the domain runs dry).
	CollidersPerRow int
}

// Name implements Generator.
func (Adversarial) Name() string { return "adversarial" }

// Description implements Generator.
func (a Adversarial) Description() string {
	return fmt.Sprintf("anti-sketch: decoys colliding with a victim in all %d CountSketch rows", a.rows())
}

func (a Adversarial) rows() int {
	if a.Rows <= 0 {
		return 5
	}
	return a.Rows
}

func (a Adversarial) buckets() uint64 {
	if a.Buckets == 0 {
		return 1 << 10
	}
	return a.Buckets
}

func (a Adversarial) collidersPerRow() int {
	if a.CollidersPerRow <= 0 {
		return 8
	}
	return a.CollidersPerRow
}

func (a Adversarial) sketchSeed(cfg Config) uint64 {
	if a.SketchSeed != 0 {
		return a.SketchSeed
	}
	return cfg.Seed * 7
}

// Colliders re-derives the target sketch's hash family and returns the
// victim plus the per-row decoy sets (flattened, deduplicated). It is
// exported to tests, which verify that every decoy really shares the
// victim's (bucket, sign) in its row of a CountSketch opened from the
// same seed.
func (a Adversarial) Colliders(cfg Config) (victim uint64, decoys []uint64) {
	cfg = cfg.withDefaults()
	rng := util.NewSplitMix64(cfg.Seed)
	items := workingSet(cfg, rng.Fork())
	victim = items[0]

	// Mirror sketch.NewCountSketch's draws exactly: one root rng from the
	// sketch seed, then a fork a row for the 4-wise polynomial the row
	// reads both an item's bucket and its sign from.
	srng := util.NewSplitMix64(a.sketchSeed(cfg))
	rows := make([]*xhash.Sign, a.rows())
	for j := range rows {
		rows[j] = xhash.NewSign(4, srng.Fork())
	}

	seen := map[uint64]bool{victim: true}
	for _, h := range rows {
		vb, vs := h.Bucket(victim, a.buckets()), h.Hash(victim)
		found := 0
		for x := uint64(0); x < cfg.N && found < a.collidersPerRow(); x++ {
			if seen[x] {
				continue
			}
			if h.Bucket(x, a.buckets()) == vb && h.Hash(x) == vs {
				seen[x] = true
				decoys = append(decoys, x)
				found++
			}
		}
	}
	return victim, decoys
}

// Generate implements Generator. The victim carries ~5% of the stream,
// the decoys split ~45%, and the rest is uniform background over the
// working set, so the decoys are genuine heavy hitters — removing them
// would change the exact answer, not just the sketch's.
func (a Adversarial) Generate(cfg Config) *stream.Stream {
	cfg = cfg.withDefaults()
	victim, decoys := a.Colliders(cfg)
	rng := util.NewSplitMix64(cfg.Seed)
	items := workingSet(cfg, rng.Fork())
	draw := rng.Fork()
	s := stream.New(cfg.N)
	for i := 0; i < cfg.Length; i++ {
		u := draw.Float64()
		switch {
		case u < 0.05:
			s.Add(victim, 1)
		case u < 0.5 && len(decoys) > 0:
			s.Add(decoys[draw.Uint64n(uint64(len(decoys)))], 1)
		default:
			s.Add(items[draw.Uint64n(uint64(len(items)))], 1)
		}
	}
	return s
}

// GenerateTicked implements TickedGenerator: the attack has no
// intrinsic arrival structure, so time is an even slicing.
func (a Adversarial) GenerateTicked(cfg Config) *TickedStream {
	return evenTicked(a.Generate(cfg), cfg)
}
