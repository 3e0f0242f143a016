package workload

import (
	"fmt"
	"math"

	"repro/internal/stream"
	"repro/internal/util"
)

// Diurnal is the load-curve scenario: item popularity is a stationary
// Zipf, but the arrival VOLUME per tick follows a day-shaped sinusoid —
// a quiet trough ramping to a peak Peak times taller and back. The
// frequency vector matches zipf's regime, so whole-stream estimates are
// unremarkable; the tick axis is the point. Windowed estimators see
// their per-window mass swing by Peak while each pane's budget stays fixed,
// and batching layers see their batch-fill rate breathe.
type Diurnal struct {
	// Alpha is the popularity skew (default 1.1).
	Alpha float64
	// Peak is the peak-to-trough volume ratio (default 4).
	Peak float64
}

// Name implements Generator.
func (Diurnal) Name() string { return "diurnal" }

// Description implements Generator.
func (d Diurnal) Description() string {
	return fmt.Sprintf("diurnal load curve: zipf popularity, per-tick volume swings %gx trough to peak", d.peak())
}

func (d Diurnal) alpha() float64 {
	if d.Alpha <= 0 {
		return 1.1
	}
	return d.Alpha
}

func (d Diurnal) peak() float64 {
	if d.Peak <= 1 {
		return 4
	}
	return d.Peak
}

// Generate implements Generator: the ticked stream without its stamps.
func (d Diurnal) Generate(cfg Config) *stream.Stream {
	s, _ := d.generate(cfg)
	return s
}

// GenerateTicked implements TickedGenerator with the load curve's
// intrinsic time axis: tick t holds volume proportional to
// 1 + (Peak-1)*(1-cos(2*pi*t/T))/2, trough at t=0, peak mid-span.
func (d Diurnal) GenerateTicked(cfg Config) *TickedStream {
	s, ticks := d.generate(cfg)
	return &TickedStream{Stream: s, Ticks: ticks}
}

// generate builds the stream tick segment by tick segment. Segment
// sizes come from cumulative rounding of the volume weights, so the
// total is exactly cfg.Length and every size is a pure function of the
// Config.
func (d Diurnal) generate(cfg Config) (*stream.Stream, []uint64) {
	cfg = cfg.withDefaults()
	rng := util.NewSplitMix64(cfg.Seed)
	items := workingSet(cfg, rng.Fork())
	draw := rng.Fork()
	s := stream.New(cfg.N)
	s.Grow(cfg.Length)
	ticks := make([]uint64, 0, cfg.Length)
	t := int(ticksOrDefault(cfg))
	peak := d.peak()
	weights := make([]float64, t)
	total := 0.0
	for i := range weights {
		weights[i] = 1 + (peak-1)*(1-math.Cos(2*math.Pi*float64(i)/float64(t)))/2
		total += weights[i]
	}
	ranks := newSampler(zipfCDF(len(items), d.alpha()))
	cum, prev := 0.0, 0
	for seg := 0; seg < t; seg++ {
		cum += weights[seg]
		hi := int(math.Round(cum / total * float64(cfg.Length)))
		if seg == t-1 {
			hi = cfg.Length // absorb rounding residue
		}
		for i := prev; i < hi; i++ {
			s.Add(items[ranks.draw(draw)], 1)
			ticks = append(ticks, uint64(seg))
		}
		prev = hi
	}
	return s, ticks
}
