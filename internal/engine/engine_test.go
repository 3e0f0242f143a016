package engine_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/hotpath"
	"repro/internal/recursive"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
)

// Compile-time checks that the unified Sketcher contract really does
// unify every layer: raw sketches, the heavy-hitter layer, the recursive
// sketch, and the public estimators.
var (
	_ engine.BatchSketcher = (*sketch.CountSketch)(nil)
	_ engine.BatchSketcher = (*sketch.AMS)(nil)
	_ engine.BatchSketcher = (*sketch.CountMin)(nil)
	_ engine.BatchSketcher = (*heavy.OnePass)(nil)
	_ engine.BatchSketcher = (*recursive.Sketch)(nil)
	_ engine.BatchSketcher = (*core.OnePassEstimator)(nil)
	_ engine.BatchSketcher = (*core.ExactEstimator)(nil)

	_ engine.Mergeable[*sketch.CountSketch]    = (*sketch.CountSketch)(nil)
	_ engine.Mergeable[*sketch.AMS]            = (*sketch.AMS)(nil)
	_ engine.Mergeable[*sketch.CountMin]       = (*sketch.CountMin)(nil)
	_ engine.Mergeable[*heavy.OnePass]         = (*heavy.OnePass)(nil)
	_ engine.Mergeable[*recursive.Sketch]      = (*recursive.Sketch)(nil)
	_ engine.Mergeable[*core.OnePassEstimator] = (*core.OnePassEstimator)(nil)
)

func TestCutCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1 << 16} {
		for _, w := range []int{1, 2, 3, 4, 7, 16} {
			prev := 0
			for i := 0; i < w; i++ {
				lo, hi := engine.Cut(n, w, i)
				if lo != prev {
					t.Fatalf("n=%d w=%d chunk %d: lo=%d, want %d", n, w, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d w=%d chunk %d: hi=%d < lo=%d", n, w, i, hi, lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d w=%d: chunks end at %d, want %d", n, w, prev, n)
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := engine.Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := engine.Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := engine.Workers(-5); got < 1 {
		t.Errorf("Workers(-5) = %d, want >= 1", got)
	}
}

func testUpdates(seed uint64, n int) []stream.Update {
	rng := util.NewSplitMix64(seed)
	out := make([]stream.Update, n)
	for i := range out {
		out[i] = stream.Update{Item: rng.Uint64n(512), Delta: rng.Int63n(9) - 4}
	}
	return out
}

// marshal serializes a plain CountSketch's counters for bit-exact
// comparison.
func marshal(t *testing.T, cs *sketch.CountSketch) []byte {
	t.Helper()
	b, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestIngestBatchPathBitIdentical(t *testing.T) {
	updates := testUpdates(11, 5000)
	serial := sketch.NewCountSketch(7, 256, util.NewSplitMix64(42))
	for _, u := range updates {
		serial.Update(u.Item, u.Delta)
	}
	batched := sketch.NewCountSketch(7, 256, util.NewSplitMix64(42))
	engine.Ingest(batched, updates, 0)
	if !bytes.Equal(marshal(t, serial), marshal(t, batched)) {
		t.Error("batched ingestion diverged from per-update ingestion")
	}
	// A second batched run with an odd batch size must also agree.
	odd := sketch.NewCountSketch(7, 256, util.NewSplitMix64(42))
	engine.Ingest(odd, updates, 137)
	if !bytes.Equal(marshal(t, serial), marshal(t, odd)) {
		t.Error("odd batch size diverged from per-update ingestion")
	}
}

func TestParallelChunksPartition(t *testing.T) {
	updates := testUpdates(7, 999)
	seen := make([]int, 8)
	var total int
	engine.ParallelChunks(updates, 8, func(i int, chunk []stream.Update) {
		seen[i] = len(chunk)
	})
	for _, n := range seen {
		if n == 0 {
			t.Error("empty chunk handed to a worker")
		}
		total += n
	}
	if total != len(updates) {
		t.Errorf("chunks cover %d updates, want %d", total, len(updates))
	}
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
// (the onepass, twopass and sharded ingest paths) collapses a
// batch once, at the top, and hands the levels the collapsed form, so no
// level's CountSketch ever allocates the scratch of its own UpdateBatch
// door. A CountSketch fed through that door is the control: it does.
func TestOneCollapsePerBatch(t *testing.T) {
	g := gfunc.F2Func()
	opts := core.Options{N: 1 << 12, M: 1 << 10, Seed: 3, Envelope: 4}
	updates := testUpdates(5, 3000)
	twopass := core.NewTwoPass(g, opts)
	engine.Ingest(twopass, updates, 512)
	twopass.FinishPass1()
	engine.Ingest(twopass, updates, 512)
	stacks := map[string]engine.Sketcher{
		"onepass": core.NewOnePass(g, opts),
		"sharded": hotpath.New(g, opts, 3),
	}
	for _, sk := range stacks {
		engine.Ingest(sk, updates, 512)
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
	engine.Ingest(cs, updates, 512)
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
// collapses: the levels of a stack (the onepass, twopass and sharded
// ingest paths) evaluate ONE row-hash family, level 0's, and no
// level holds coefficients of its own; a batch is hashed for that family
// once — rows x distinct items evaluations, a matrix the levels below read
// through the positions Subsample leaves — not once per level it reaches.
func TestOneHashPerBatch(t *testing.T) {
	g := gfunc.F2Func()
	opts := core.Options{N: 1 << 12, M: 1 << 10, Seed: 3, Envelope: 4}
	updates := testUpdates(5, 3000)
	seen := map[uint64]bool{}
	for _, u := range updates {
		seen[u.Item] = true
	}
	distinct := len(seen)
	twopass := core.NewTwoPass(g, opts)
	stacks := map[string]engine.Sketcher{
		"onepass": core.NewOnePass(g, opts),
		"sharded": hotpath.New(g, opts, 3),
		"twopass": twopass,
	}
	for name, sk := range stacks {
		engine.Ingest(sk, updates, len(updates))
		h := hashingOf(sk)
		shards, rows := 1, 5 // ⌈2 ln(1/(δ/2))⌉ rows at δ = 0.2; the two-pass sketch takes δ whole: ⌈3.2⌉ made odd
		if name == "sharded" {
			shards = 3
		}
		if len(h.families) != shards || len(h.plans) != shards {
			t.Errorf("%s: %d row-hash families and %d batch plans over %d stacks, want one of each a stack", name, len(h.families), len(h.plans), shards)
			continue
		}
		items := 0
		for _, p := range h.plans {
			if h.families[p.by] < 5 || p.hashed != rows*p.items {
				t.Errorf("%s: a batch of %d items holds %d hashes by a family %d levels evaluate; want %d hashes by the family of all 5 or more",
					name, p.items, p.hashed, h.families[p.by], rows*p.items)
			}
			items += p.items
		}
		if items != distinct {
			t.Errorf("%s: the last batch was hashed for %d items, it holds %d distinct", name, items, distinct)
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
