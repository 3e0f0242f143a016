package sketch

import (
	"math"

	"repro/internal/util"
	"repro/internal/xhash"
)

// AMS is the Alon-Matias-Szegedy tug-of-war sketch for the second frequency
// moment F2 = Σ v_i². It maintains groups x reps independent counters
// Z = Σ ξ(i) v_i with 4-wise independent signs ξ; Z² is an unbiased
// estimator of F2. The estimate is the median over groups of the mean over
// reps (median-of-means), giving a (1±ε)-approximation with probability
// 1-δ for reps = O(1/ε²) and groups = O(log 1/δ).
type AMS struct {
	groups int
	reps   int
	z      [][]int64
	sign   [][]*xhash.Sign
	agg    Batch // reusable UpdateBatch scratch
}

// NewAMS returns an AMS sketch with the given number of median groups and
// per-group repetitions. It panics on non-positive dimensions.
func NewAMS(groups, reps int, rng *util.SplitMix64) *AMS {
	if groups <= 0 || reps <= 0 {
		panic("sketch: AMS needs positive dimensions")
	}
	a := &AMS{
		groups: groups,
		reps:   reps,
		z:      make([][]int64, groups),
		sign:   make([][]*xhash.Sign, groups),
	}
	for g := 0; g < groups; g++ {
		a.z[g] = make([]int64, reps)
		a.sign[g] = make([]*xhash.Sign, reps)
		for r := 0; r < reps; r++ {
			a.sign[g][r] = xhash.NewSign(4, rng.Fork())
		}
	}
	return a
}

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

// SpaceBytes returns the counter storage in bytes.
func (a *AMS) SpaceBytes() int { return a.groups * a.reps * 8 }

// Update processes the turnstile update (item, delta).
func (a *AMS) Update(item uint64, delta int64) {
	for g := 0; g < a.groups; g++ {
		for r := 0; r < a.reps; r++ {
			a.z[g][r] += a.sign[g][r].Hash(item) * delta
		}
	}
}

// EstimateF2 returns the median-of-means F2 estimate.
func (a *AMS) EstimateF2() float64 {
	means := make([]float64, a.groups)
	for g := 0; g < a.groups; g++ {
		var sum float64
		for r := 0; r < a.reps; r++ {
			z := float64(a.z[g][r])
			sum += z * z
		}
		means[g] = sum / float64(a.reps)
	}
	return util.MedianFloat64(means)
}

// Merge adds the counters of other into a. Dimensions must match; callers
// are responsible for seed discipline (same hash functions), as with
// CountSketch.Merge.
func (a *AMS) Merge(other *AMS) error {
	if a.groups != other.groups || a.reps != other.reps {
		return errDimension("AMS", a.groups*a.reps, other.groups*other.reps)
	}
	for g := 0; g < a.groups; g++ {
		for r := 0; r < a.reps; r++ {
			a.z[g][r] += other.z[g][r]
		}
	}
	return nil
}

type dimensionError struct {
	kind string
	a, b int
}

func (e *dimensionError) Error() string {
	return "sketch: " + e.kind + " merge dimension mismatch"
}

func errDimension(kind string, a, b int) error {
	return &dimensionError{kind: kind, a: a, b: b}
}
