package sketch

import (
	"repro/internal/util"
	"repro/internal/xhash"
)

// CountMin is the Cormode-Muthukrishnan Count-Min sketch, included as a
// comparison baseline for the heavy-hitter layer. Unlike CountSketch it only
// supports non-negative frequencies faithfully (its guarantee is one-sided
// overestimation); in the strict turnstile range it still answers point
// queries with error εF1.
type CountMin struct {
	rows    int
	buckets uint64
	counts  [][]int64
	bucket  []*xhash.Buckets
	agg     Batch // reusable UpdateBatch scratch
}

// NewCountMin returns a CountMin sketch with r rows and b buckets.
func NewCountMin(r int, b uint64, rng *util.SplitMix64) *CountMin {
	if r <= 0 || b == 0 {
		panic("sketch: CountMin needs positive dimensions")
	}
	cm := &CountMin{
		rows:    r,
		buckets: b,
		counts:  make([][]int64, r),
		bucket:  make([]*xhash.Buckets, r),
	}
	for j := 0; j < r; j++ {
		cm.counts[j] = make([]int64, b)
		cm.bucket[j] = xhash.NewBuckets(2, b, rng.Fork())
	}
	return cm
}

// SpaceBytes returns the counter storage in bytes.
func (cm *CountMin) SpaceBytes() int { return cm.rows * int(cm.buckets) * 8 }

// Update processes the turnstile update (item, delta).
func (cm *CountMin) Update(item uint64, delta int64) {
	for j := 0; j < cm.rows; j++ {
		cm.counts[j][cm.bucket[j].Hash(item)] += delta
	}
}

// Estimate returns the min-over-rows point query, the one-sided CountMin
// estimate (valid when all frequencies are non-negative).
func (cm *CountMin) Estimate(item uint64) int64 {
	est := cm.counts[0][cm.bucket[0].Hash(item)]
	for j := 1; j < cm.rows; j++ {
		if c := cm.counts[j][cm.bucket[j].Hash(item)]; c < est {
			est = c
		}
	}
	return est
}
