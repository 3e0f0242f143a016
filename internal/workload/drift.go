package workload

import (
	"fmt"

	"repro/internal/stream"
	"repro/internal/util"
)

// Drift is the concept-drift scenario: the stream is cut into tick
// segments and both the popularity law and the item identities move as
// time passes. Segment t of T draws from a Zipf distribution whose
// exponent interpolates linearly from StartAlpha to EndAlpha, and the
// rank-to-item mapping rotates through the working set, so yesterday's
// heavy hitters decay into the tail while fresh items take the head.
// Sketches sized for a stationary skew see both their candidate set and
// their tail mass shift under them — the workload a static heavy-hitter
// snapshot ages worst on.
type Drift struct {
	// StartAlpha and EndAlpha bound the linear skew ramp
	// (defaults 0.8 -> 1.6).
	StartAlpha, EndAlpha float64
	// RotateFrac is the fraction of the working set the head rotates
	// through over the whole stream (default 1.0: a full lap).
	RotateFrac float64
}

// Name implements Generator.
func (Drift) Name() string { return "drift" }

// Description implements Generator.
func (d Drift) Description() string {
	sa, ea := d.alphas()
	return fmt.Sprintf("concept drift: zipf alpha ramps %.1f->%.1f while the item head rotates", sa, ea)
}

func (d Drift) alphas() (float64, float64) {
	sa, ea := d.StartAlpha, d.EndAlpha
	if sa <= 0 {
		sa = 0.8
	}
	if ea <= 0 {
		ea = 1.6
	}
	return sa, ea
}

func (d Drift) rotateFrac() float64 {
	if d.RotateFrac <= 0 || d.RotateFrac > 1 {
		return 1.0
	}
	return d.RotateFrac
}

// Generate implements Generator: the ticked stream without its stamps.
func (d Drift) Generate(cfg Config) *stream.Stream {
	s, _ := d.generate(cfg)
	return s
}

// GenerateTicked implements TickedGenerator with the drift's intrinsic
// time axis: one tick per segment, so every per-tick vector is exactly
// one (alpha, rotation) regime.
func (d Drift) GenerateTicked(cfg Config) *TickedStream {
	s, ticks := d.generate(cfg)
	return &TickedStream{Stream: s, Ticks: ticks}
}

// generate builds the drifting stream. Seed discipline matches every
// other generator — working set first, then draws — and the segment
// loop re-derives its CDF per tick, so the stream is a pure function of
// the Config regardless of how it is later sharded.
func (d Drift) generate(cfg Config) (*stream.Stream, []uint64) {
	cfg = cfg.withDefaults()
	rng := util.NewSplitMix64(cfg.Seed)
	items := workingSet(cfg, rng.Fork())
	draw := rng.Fork()
	s := stream.New(cfg.N)
	s.Grow(cfg.Length)
	ticks := make([]uint64, 0, cfg.Length)
	t := int(ticksOrDefault(cfg))
	sa, ea := d.alphas()
	// The head rotates rotateFrac*len(items) positions over T segments.
	lap := d.rotateFrac() * float64(len(items))
	for seg := 0; seg < t; seg++ {
		lo := seg * cfg.Length / t
		hi := (seg + 1) * cfg.Length / t
		if lo == hi {
			continue
		}
		frac := 0.0
		if t > 1 {
			frac = float64(seg) / float64(t-1)
		}
		alpha := sa + (ea-sa)*frac
		rot := int(lap*float64(seg)/float64(t)) % len(items)
		ranks := newSampler(zipfCDF(len(items), alpha))
		for i := lo; i < hi; i++ {
			rank := ranks.draw(draw)
			s.Add(items[(rank+rot)%len(items)], 1)
			ticks = append(ticks, uint64(seg))
		}
	}
	return s, ticks
}
