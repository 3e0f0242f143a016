package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one static name="value" pair attached to an instrument at
// registration time. Labels distinguish series within one family (e.g.
// ingest counters per transport); they are fixed for the instrument's
// lifetime.
type Label struct {
	Key   string
	Value string
}

// instrument kinds, used for TYPE lines and registration checks.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instrument inside a family.
type series struct {
	labels []Label
	key    string // canonical label encoding, for duplicate detection

	// Exactly one of the following is active, per the family type.
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups every series registered under one metric name.
type family struct {
	name   string
	help   string
	typ    string
	series []*series
}

// Registry holds instrument families and encodes them on demand. The
// zero value is not usable; call New. Registration takes the registry
// lock; reads and writes of registered instruments are atomic and
// lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order of family names
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey canonicalizes a label set for duplicate detection. Labels
// are sorted by key, so the same set in a different order collides as
// it should.
func labelKey(labels []Label) string {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	key := ""
	for _, l := range ls {
		key += l.Key + "\x00" + l.Value + "\x00"
	}
	return key
}

// register adds a series under name, creating or checking the family.
// It panics on a type/help mismatch with an existing family or on a
// duplicate (name, label set) — both are construction-time programmer
// errors that must not silently merge distinct instruments.
func (r *Registry) register(name, help, typ string, s *series) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	s.key = labelKey(s.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	for _, prev := range f.series {
		if prev.key == s.key {
			panic(fmt.Sprintf("metrics: duplicate registration of %s%s", name, formatLabels(s.labels)))
		}
	}
	f.series = append(f.series, s)
}

// Counter is a monotonically increasing uint64. The zero value is not
// registered; obtain one from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Counter registers (or panics on duplicate) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, &series{labels: labels, counter: c})
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64 (stored as IEEE bits, so Set is one
// atomic store and Add a CAS loop).
type Gauge struct {
	bits atomic.Uint64
}

// Gauge registers (or panics on duplicate) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, typeGauge, &series{labels: labels, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the idiom for values that already live elsewhere (goroutine
// counts, heap stats, a clock read under a lock).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, typeGauge, &series{labels: labels, fn: fn})
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets, with a
// running sum — the Prometheus histogram model. Buckets are the
// inclusive upper bounds, strictly increasing; the +Inf bucket is
// implicit.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus the +Inf slot at the end
	sum    atomic.Uint64   // float64 bits
}

// Histogram registers (or panics on duplicate) a histogram series with
// the given upper bounds (strictly increasing; nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bucket bounds not strictly increasing at %v", name, bounds[i]))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	r.register(name, help, typeHistogram, &series{labels: labels, hist: h})
	return h
}

// DefBuckets is the default histogram layout: latencies in seconds
// from 100µs to ~10s, exponential.
var DefBuckets = []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// SizeBuckets is a layout for byte and batch-size distributions: powers
// of four from 16 to ~16M.
var SizeBuckets = []float64{16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216}

// Observe records one observation. Each observation lands in exactly
// one underlying slot; cumulative bucket values are computed at encode
// time, so Observe is O(log buckets) + one CAS loop for the sum.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }
