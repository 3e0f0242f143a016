package sketch

import "repro/internal/util"

// Exact is the linear-space baseline: a hash map holding every nonzero
// frequency exactly. It implements the same Update/Estimate surface as the
// sketches so harnesses can swap it in; its SpaceBytes grows with the
// number of distinct items, which is precisely the cost the paper's
// sub-polynomial algorithms avoid.
type Exact struct {
	freq map[uint64]int64
}

// NewExact returns an empty exact counter.
func NewExact() *Exact {
	return &Exact{freq: make(map[uint64]int64)}
}

// Update processes the turnstile update (item, delta).
func (e *Exact) Update(item uint64, delta int64) {
	nv := e.freq[item] + delta
	if nv == 0 {
		delete(e.freq, item)
	} else {
		e.freq[item] = nv
	}
}

// Estimate returns the exact frequency of item.
func (e *Exact) Estimate(item uint64) int64 { return e.freq[item] }

// SpaceBytes returns an estimate of the map storage: 16 bytes per entry
// (key + value), ignoring map overhead. The point is the growth rate, which
// is linear in distinct items.
func (e *Exact) SpaceBytes() int { return len(e.freq) * 16 }

// Distinct returns the number of items with nonzero frequency.
func (e *Exact) Distinct() int { return len(e.freq) }

// Each calls fn for every (item, frequency) pair with nonzero frequency.
func (e *Exact) Each(fn func(item uint64, freq int64)) {
	for it, f := range e.freq {
		fn(it, f)
	}
}

// F2 returns the exact second moment.
func (e *Exact) F2() float64 {
	var f2 float64
	for _, f := range e.freq {
		ff := float64(f)
		f2 += ff * ff
	}
	return f2
}

// MaxAbs returns the exact maximum |frequency|.
func (e *Exact) MaxAbs() int64 {
	var m int64
	for _, f := range e.freq {
		if a := util.SatAbsInt64(f); a > m {
			m = a
		}
	}
	return m
}
