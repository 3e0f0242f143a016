package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(1)
	g.Dec()
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("test_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+5+50; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 0.1 is an inclusive upper bound: cumulative counts 2, 3, 4, 5.
	for _, line := range []string{
		`test_seconds_bucket{le="0.1"} 2`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_count 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("encoding missing %q:\n%s", line, out)
		}
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	r := New()
	r.Counter("rt_updates_total", "updates", Label{"transport", "json"}).Add(7)
	r.Counter("rt_updates_total", "updates", Label{"transport", "stream"}).Add(9)
	r.Gauge("rt_depth", "queue depth").Set(3)
	r.GaugeFunc("rt_goroutines", "live goroutines", func() float64 { return 12 })
	r.Gauge("rt_weird", `value with "quotes" and \slashes`, Label{"k", `a"b\c`}).Set(math.Inf(1))
	h := r.Histogram("rt_seconds", "latency", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(&buf)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if v, ok := sc.Value("rt_updates_total", Label{"transport", "json"}); !ok || v != 7 {
		t.Fatalf("json counter = %v, %v", v, ok)
	}
	if got := sc.Sum("rt_updates_total"); got != 16 {
		t.Fatalf("summed counters = %v, want 16", got)
	}
	if v, ok := sc.Value("rt_goroutines"); !ok || v != 12 {
		t.Fatalf("gauge func = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_weird", Label{"k", `a"b\c`}); !ok || !math.IsInf(v, 1) {
		t.Fatalf("escaped-label sample = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_seconds_count"); !ok || v != 2 {
		t.Fatalf("histogram count = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_seconds_bucket", Label{"le", "0.5"}); !ok || v != 1 {
		t.Fatalf("histogram bucket = %v, %v", v, ok)
	}
	if !sc.Has("rt_seconds_bucket", Label{"le", "+Inf"}) {
		t.Fatal("no +Inf bucket in parse")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := New()
	r.Counter("dup_total", "x", Label{"a", "1"})
	r.Counter("dup_total", "x", Label{"a", "2"}) // distinct labels: fine
	assertPanics(t, "same labels", func() { r.Counter("dup_total", "x", Label{"a", "1"}) })
	assertPanics(t, "type mismatch", func() { r.Gauge("dup_total", "x") })
	assertPanics(t, "empty name", func() { r.Counter("", "x") })
	assertPanics(t, "bad bounds", func() { r.Histogram("dup_hist", "x", []float64{1, 1}) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestConcurrentInstruments drives every instrument from many
// goroutines under -race while scraping concurrently: the hot path must
// be lock-free and the encoder must see consistent values.
func TestConcurrentInstruments(t *testing.T) {
	r := New()
	c := r.Counter("cc_total", "c")
	g := r.Gauge("cc_gauge", "g")
	h := r.Histogram("cc_seconds", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 1e-4)
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < 50; i++ {
				buf.Reset()
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				if _, err := Parse(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
