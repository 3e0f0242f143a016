package sketch

import (
	"math"

	"repro/internal/util"
)

// dense materializes a fresh sketch and returns it: the dense twin a
// sparse sketch of the same seed is held to. It is a test door, not a
// knob.
func dense(cs *CountSketch) *CountSketch {
	cs.materialize()
	return cs
}

// counters returns a copy of the counter matrix, row-major, whether the
// sketch holds it or replays it.
func (cs *CountSketch) counters() []int64 {
	out := make([]int64, 0, uint64(cs.rows)*cs.buckets)
	cs.eachRow(func(_ int, row []int64) { out = append(out, row...) })
	return out
}

// sparse reports whether the sketch still holds a table.
func (cs *CountSketch) sparse() bool { return cs.flat == nil }

// NewAMSForError returns an AMS sketch sized for a (1±eps)-approximation
// with failure probability delta: reps = ceil(8/eps²), groups =
// ceil(4 ln(1/delta)) (at least 1). It panics if eps or delta are outside
// (0, 1).
func NewAMSForError(eps, delta float64, rng *util.SplitMix64) *AMS {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic("sketch: AMS accuracy parameters must be in (0,1)")
	}
	reps := int(8/(eps*eps)) + 1
	groups := int(math.Ceil(4 * math.Log(1/delta)))
	if groups < 1 {
		groups = 1
	}
	return NewAMS(groups, reps, rng)
}

// TrackedItems returns the identities the top-k tracker holds (nil when
// the sketch was built without one).
func (cs *CountSketch) TrackedItems() []uint64 {
	if cs.topK == nil {
		return nil
	}
	return cs.topK.items()
}
