package workload

import (
	"fmt"

	"repro/internal/stream"
	"repro/internal/util"
)

// FlashCrowd is the regime-change scenario: the stream opens as pure
// uniform background — no heavy hitter anywhere — and at BreakFrac of
// the way through, one previously cold tail item goes viral and takes
// CrowdShare of every remaining update. The whole-stream vector has a
// clear head, but any estimator that froze its candidate set during the
// quiet first act never saw the crowd coming; sliding windows that
// cover only the second act see a needle workload instead. Its ticked
// stream is Ticked's even slicing, so the break lands at tick
// BreakFrac*Ticks.
type FlashCrowd struct {
	// BreakFrac is where the crowd arrives, as a fraction of the stream
	// (default 0.5).
	BreakFrac float64
	// CrowdShare is the crowd item's share of post-break updates
	// (default 0.6).
	CrowdShare float64
}

// Name implements Generator.
func (FlashCrowd) Name() string { return "flashcrowd" }

// Description implements Generator.
func (f FlashCrowd) Description() string {
	return fmt.Sprintf("flash crowd: uniform until %.0f%%, then one tail item takes %.0f%% of the stream",
		f.breakFrac()*100, f.crowdShare()*100)
}

func (f FlashCrowd) breakFrac() float64 {
	if f.BreakFrac <= 0 || f.BreakFrac >= 1 {
		return 0.5
	}
	return f.BreakFrac
}

func (f FlashCrowd) crowdShare() float64 {
	if f.CrowdShare <= 0 || f.CrowdShare >= 1 {
		return 0.6
	}
	return f.CrowdShare
}

// Generate implements Generator. The crowd item is the LAST item of the
// shared working set — the same set zipf's head comes from the front of
// — so comparing scenarios over one Config puts the flash crowd on an
// item every other scenario treats as tail.
func (f FlashCrowd) Generate(cfg Config) *stream.Stream {
	cfg = cfg.withDefaults()
	rng := util.NewSplitMix64(cfg.Seed)
	items := workingSet(cfg, rng.Fork())
	draw := rng.Fork()
	s := stream.New(cfg.N)
	s.Grow(cfg.Length)
	crowd := items[len(items)-1]
	breakAt := int(f.breakFrac() * float64(cfg.Length))
	share := f.crowdShare()
	for i := 0; i < cfg.Length; i++ {
		if i >= breakAt && draw.Float64() < share {
			s.Add(crowd, 1)
			continue
		}
		s.Add(items[draw.Uint64n(uint64(len(items)))], 1)
	}
	return s
}
