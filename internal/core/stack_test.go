package core

import (
	"reflect"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
)

// batcher is what the stack tests feed: any summary with a batch path.
type batcher interface {
	Update(item uint64, delta int64)
	UpdateBatch(batch []stream.Update)
}

// feed hands updates to b's batch path in chunks of size.
func feed(b batcher, updates []stream.Update, size int) {
	for lo := 0; lo < len(updates); lo += size {
		b.UpdateBatch(updates[lo:min(lo+size, len(updates))])
	}
}

// chunked returns a one-pass stack that has ingested a stream of three
// full batches through ProcessParallel at 3 workers: the sharded kind's
// resident stack, after two clones were merged into it and dropped.
func chunked(t *testing.T, g gfunc.Func, opts Options) *OnePassEstimator {
	t.Helper()
	e := NewOnePass(g, opts)
	s := stream.New(opts.N)
	for _, u := range testUpdates(9, 3*stream.BatchSize) {
		s.Add(u.Item, u.Delta)
	}
	if err := e.ProcessParallel(s, 3); err != nil {
		t.Fatal(err)
	}
	return e
}

func testUpdates(seed uint64, n int) []stream.Update {
	rng := util.NewSplitMix64(seed)
	out := make([]stream.Update, n)
	for i := range out {
		out[i] = stream.Update{Item: rng.Uint64n(512), Delta: rng.Int63n(9) - 4}
	}
	return out
}

// walkStructs visits every struct value reachable from v (through
// unexported fields too: reflection may look, not touch), each pointer
// once. visit reports whether to descend into the struct's fields.
func walkStructs(v reflect.Value, seen map[uintptr]bool, visit func(reflect.Value) bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		walkStructs(v.Elem(), seen, visit)
	case reflect.Interface:
		if !v.IsNil() {
			walkStructs(v.Elem(), seen, visit)
		}
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k != reflect.Pointer && k != reflect.Interface && k != reflect.Struct {
			return // counters and coefficients: nothing to find
		}
		for i := 0; i < v.Len(); i++ {
			walkStructs(v.Index(i), seen, visit)
		}
	case reflect.Struct:
		if visit(v) {
			for i := 0; i < v.NumField(); i++ {
				walkStructs(v.Field(i), seen, visit)
			}
		}
	}
}

// countSketchBatches reports how many CountSketches sk holds and how many
// of them own a collapsed-batch scratch (their agg field).
func countSketchBatches(sk any) (sketches, owners int) {
	walkStructs(reflect.ValueOf(sk), map[uintptr]bool{}, func(v reflect.Value) bool {
		if v.Type() == reflect.TypeOf(sketch.CountSketch{}) {
			sketches++
			if !v.FieldByName("agg").IsNil() {
				owners++
			}
		}
		return true
	})
	return sketches, owners
}

// TestOneCollapsePerBatch pins who collapses: a stack of level sketches
// (the onepass, twopass and chunked ingest paths) collapses a
// batch once, at the top, and hands the levels the collapsed form, so no
// level's CountSketch ever allocates the scratch of its own UpdateBatch
// door. A CountSketch fed through that door is the control: it does.
func TestOneCollapsePerBatch(t *testing.T) {
	g := gfunc.F2Func()
	opts := Options{N: 1 << 12, M: 1 << 10, Seed: 3, Envelope: 4}
	updates := testUpdates(5, 3000)
	twopass := NewTwoPass(g, opts)
	feed(twopass, updates, 512)
	twopass.FinishPass1()
	feed(twopass, updates, 512)
	stacks := map[string]batcher{
		"onepass": NewOnePass(g, opts),
		"sharded": chunked(t, g, opts),
	}
	for _, sk := range stacks {
		feed(sk, updates, 512)
		sk.Update(7, 1)
	}
	stacks["twopass"] = twopass
	for name, sk := range stacks {
		sketches, owners := countSketchBatches(sk)
		// N = 2^12 over trackers of 769: depth 4, five level sketches a stack.
		if sketches < 5 || owners != 0 {
			t.Errorf("%s: %d of %d level CountSketches collapsed a batch themselves, want 0 of at least 5", name, owners, sketches)
		}
	}
	cs := sketch.NewCountSketch(5, 64, util.NewSplitMix64(1))
	feed(cs, updates, 512)
	if sketches, owners := countSketchBatches(cs); sketches != 1 || owners != 1 {
		t.Errorf("control: found %d CountSketches, %d owning a batch; want 1 and 1", sketches, owners)
	}
}

// stackHashing is what hashes a stack's batches: the distinct row-hash
// families its CountSketches evaluate, and, for every sketch.Batch it owns,
// the family that hashed the last batch and the shape of the hash matrix.
type stackHashing struct {
	families map[uintptr]int // family -> CountSketches evaluating it
	plans    []planHashing
}

type planHashing struct {
	by            uintptr
	hashed, items int
}

func hashingOf(sk any) stackHashing {
	h := stackHashing{families: map[uintptr]int{}}
	walkStructs(reflect.ValueOf(sk), map[uintptr]bool{}, func(v reflect.Value) bool {
		switch v.Type() {
		case reflect.TypeOf(sketch.CountSketch{}):
			h.families[v.FieldByName("hash").Pointer()]++
		case reflect.TypeOf(sketch.Batch{}):
			h.plans = append(h.plans, planHashing{
				by:     v.FieldByName("by").Pointer(),
				hashed: v.FieldByName("hashed").Len(),
				items:  v.FieldByName("items").Len(),
			})
			return false
		}
		return true
	})
	return h
}

// TestOneHashPerBatch pins who hashes, beside TestOneCollapsePerBatch's who
// collapses: the levels of a stack (the onepass, twopass and chunked
// ingest paths) evaluate ONE row-hash family, level 0's, and no
// level holds coefficients of its own; a batch is hashed for that family
// once — rows x distinct items evaluations, a matrix the levels below read
// through the positions Subsample leaves — not once per level it reaches.
// The stack ProcessParallel leaves behind is one stack too: the clones it
// merged brought no family or batch plan into it.
func TestOneHashPerBatch(t *testing.T) {
	g := gfunc.F2Func()
	opts := Options{N: 1 << 12, M: 1 << 10, Seed: 3, Envelope: 4}
	updates := testUpdates(5, 3000)
	seen := map[uint64]bool{}
	for _, u := range updates {
		seen[u.Item] = true
	}
	distinct := len(seen)
	twopass := NewTwoPass(g, opts)
	stacks := map[string]batcher{
		"onepass": NewOnePass(g, opts),
		"sharded": chunked(t, g, opts),
		"twopass": twopass,
	}
	for name, sk := range stacks {
		feed(sk, updates, len(updates))
		h := hashingOf(sk)
		rows := 5 // ⌈2 ln(1/(δ/2))⌉ rows at δ = 0.2; the two-pass sketch takes δ whole: ⌈3.2⌉ made odd
		if len(h.families) != 1 || len(h.plans) != 1 {
			t.Errorf("%s: %d row-hash families and %d batch plans, want one of each", name, len(h.families), len(h.plans))
			continue
		}
		p := h.plans[0]
		if h.families[p.by] < 5 || p.hashed != rows*p.items {
			t.Errorf("%s: a batch of %d items holds %d hashes by a family %d levels evaluate; want %d hashes by the family of all 5 or more",
				name, p.items, p.hashed, h.families[p.by], rows*p.items)
		}
		if p.items != distinct {
			t.Errorf("%s: the last batch was hashed for %d items, it holds %d distinct", name, p.items, distinct)
		}
	}
	// Two stacks do not share: each draws its own family from its seed.
	other := hashingOf(stacks["twopass"])
	for f := range hashingOf(stacks["onepass"]).families {
		if other.families[f] != 0 {
			t.Error("two stacks evaluate one family object")
		}
	}
}
