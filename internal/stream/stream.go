package stream

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/util"
)

// Update is a single turnstile update (i, δ): add δ to the frequency of
// item i. Items are identified by uint64 in [0, n).
type Update struct {
	Item  uint64
	Delta int64
}

// BatchSize is the chunk Batches feeds a batch path: large enough to
// amortize per-batch work (duplicate aggregation, top-k re-scores), small
// enough to keep the collapsed batch and its scratch cache-resident.
const BatchSize = 4096

// Batches calls fn on consecutive chunks of at most BatchSize updates.
// A batch path leaves the counters exactly as per-update ingestion would
// (linearity), so the chunking changes nothing but the speed.
func Batches(updates []Update, fn func(batch []Update)) {
	for lo := 0; lo < len(updates); lo += BatchSize {
		fn(updates[lo:min(lo+BatchSize, len(updates))])
	}
}

// Stream is an in-memory turnstile stream over the domain [0, N). It holds
// the update list so that multi-pass algorithms (Algorithm 1 of the paper)
// can replay it. Stream corresponds to an element of D(n, m).
type Stream struct {
	n       uint64
	updates []Update
}

// New returns an empty stream over the domain [0, n). It panics if n == 0.
func New(n uint64) *Stream {
	if n == 0 {
		panic("stream: empty domain")
	}
	return &Stream{n: n}
}

// N returns the domain size.
func (s *Stream) N() uint64 { return s.n }

// Len returns the stream length m (number of updates).
func (s *Stream) Len() int { return len(s.updates) }

// Grow makes room for n more updates, so the next n Adds append without
// growing the update list: a generator that knows its length sizes the
// stream once.
func (s *Stream) Grow(n int) { s.updates = slices.Grow(s.updates, n) }

// Add appends the update (item, delta). It panics if item is outside the
// domain, mirroring the model's promise i_j ∈ [n].
func (s *Stream) Add(item uint64, delta int64) {
	if item >= s.n {
		panic(fmt.Sprintf("stream: item %d outside domain [0,%d)", item, s.n))
	}
	s.updates = append(s.updates, Update{Item: item, Delta: delta})
}

// AddCopies appends count insertions of item as a single update, the
// "Alice contributes n copies of i" idiom from the reductions.
func (s *Stream) AddCopies(item uint64, count int64) {
	s.Add(item, count)
}

// Updates returns the underlying update list. Callers must not modify it.
func (s *Stream) Updates() []Update { return s.updates }

// Each calls fn for every update in order. This is the single-pass read
// interface used by one-pass algorithms.
func (s *Stream) Each(fn func(Update)) {
	for _, u := range s.updates {
		fn(u)
	}
}

// Concat appends all updates of t (over the same domain) to s. It panics on
// domain mismatch. This models players jointly creating a notional stream.
func (s *Stream) Concat(t *Stream) {
	if s.n != t.n {
		panic("stream: domain mismatch in Concat")
	}
	s.updates = append(s.updates, t.updates...)
}

// Clone returns a deep copy of the stream.
func (s *Stream) Clone() *Stream {
	cp := &Stream{n: s.n, updates: make([]Update, len(s.updates))}
	copy(cp.updates, s.updates)
	return cp
}

// Vector materializes the frequency vector V(D) as a sparse map from item
// to frequency. Zero frequencies are omitted.
func (s *Stream) Vector() Vector {
	v := make(Vector, 64)
	for _, u := range s.updates {
		nv := v[u.Item] + u.Delta
		if nv == 0 {
			delete(v, u.Item)
		} else {
			v[u.Item] = nv
		}
	}
	return v
}

// Vector is a sparse frequency vector: item -> frequency. Items with zero
// frequency are absent.
type Vector map[uint64]int64

// ErrDomainMismatch is returned by vector operations on different domains.
var ErrDomainMismatch = errors.New("stream: vector domain mismatch")

// F2 returns the second frequency moment Σ v_i².
func (v Vector) F2() float64 {
	var f2 float64
	for _, c := range v {
		fc := float64(c)
		f2 += fc * fc
	}
	return f2
}

// F1 returns Σ |v_i|.
func (v Vector) F1() float64 {
	var f1 float64
	for _, c := range v {
		f1 += float64(util.SatAbsInt64(c))
	}
	return f1
}

// F0 returns the number of items with nonzero frequency.
func (v Vector) F0() int { return len(v) }

// MaxAbs returns max_i |v_i| (0 for an empty vector).
func (v Vector) MaxAbs() int64 {
	var m int64
	for _, c := range v {
		if a := util.SatAbsInt64(c); a > m {
			m = a
		}
	}
	return m
}

// Sum applies g to every |v_i| and sums: the g-SUM ground truth
// Σ_i g(|v_i|) for a function with g(0) = 0 (absent items contribute 0).
func (v Vector) Sum(g func(uint64) float64) float64 {
	var s float64
	for _, c := range v {
		s += g(uint64(util.SatAbsInt64(c)))
	}
	return s
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	cp := make(Vector, len(v))
	for k, c := range v {
		cp[k] = c
	}
	return cp
}

// Sub returns u - w as a new vector (the Alice-minus-Bob vector of the
// DIST communication problems).
func Sub(u, w Vector) Vector {
	out := u.Clone()
	for k, c := range w {
		nv := out[k] - c
		if nv == 0 {
			delete(out, k)
		} else {
			out[k] = nv
		}
	}
	return out
}
