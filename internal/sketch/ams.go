package sketch

import (
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
