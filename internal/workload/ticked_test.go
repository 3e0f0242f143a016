package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
)

func tickedCfg() Config {
	return Config{N: 1 << 12, Items: 256, Length: 6000, Seed: 5, Ticks: 48}
}

// TestTickedDeterministicAndMonotone: every generator's ticked stream
// is a pure function of the Config, ticks are non-decreasing, stamped
// one per update, and span at most the configured tick count.
func TestTickedDeterministicAndMonotone(t *testing.T) {
	cfg := tickedCfg()
	for _, g := range Generators() {
		a, b := Ticked(g, cfg), Ticked(g, cfg)
		if !streamsEqual(a.Stream, b.Stream) {
			t.Fatalf("%s: ticked stream not deterministic", g.Name())
		}
		if len(a.Ticks) != len(b.Ticks) || len(a.Ticks) != a.Stream.Len() {
			t.Fatalf("%s: tick count %d for %d updates", g.Name(), len(a.Ticks), a.Stream.Len())
		}
		for i := range a.Ticks {
			if a.Ticks[i] != b.Ticks[i] {
				t.Fatalf("%s: ticks not deterministic at %d", g.Name(), i)
			}
			if i > 0 && a.Ticks[i] < a.Ticks[i-1] {
				t.Fatalf("%s: ticks decrease at %d: %d -> %d", g.Name(), i, a.Ticks[i-1], a.Ticks[i])
			}
			if a.Ticks[i] >= uint64(cfg.Ticks) {
				t.Fatalf("%s: tick %d outside [0,%d)", g.Name(), a.Ticks[i], cfg.Ticks)
			}
		}
	}
}

// TestTickedFrequencyVectorsPreserved: for zipf/uniform/needle the
// ticked stream IS the plain stream plus stamps; for bursty too (the
// run recorder must not disturb the draw sequence); for permuted the
// whole-stream vector still matches the inner stream's.
func TestTickedFrequencyVectorsPreserved(t *testing.T) {
	cfg := tickedCfg()
	for _, g := range Generators() {
		ticked := Ticked(g, cfg)
		if g.Name() == "permuted" {
			inner := Zipf{}.Generate(cfg)
			if len(ticked.Stream.Vector()) != len(inner.Vector()) {
				t.Fatalf("permuted ticked vector cardinality drifted")
			}
			for it, c := range inner.Vector() {
				if ticked.Stream.Vector()[it] != c {
					t.Fatalf("permuted ticked vector differs at item %d", it)
				}
			}
			continue
		}
		if !streamsEqual(ticked.Stream, g.Generate(cfg)) {
			t.Fatalf("%s: ticked stream differs from plain stream", g.Name())
		}
	}
}

// TestBurstyTickedRunsDoNotStraddle: bursty's burst-aligned time axis
// keeps every geometric run inside a single tick — the tick only ever
// changes at an index where a new run begins.
func TestBurstyTickedRunsDoNotStraddle(t *testing.T) {
	cfg := tickedCfg()
	ts := Bursty{}.GenerateTicked(cfg)
	_, runStarts := Bursty{}.generate(cfg)
	isStart := make(map[int]bool, len(runStarts))
	for _, s := range runStarts {
		isStart[s] = true
	}
	for i := 1; i < len(ts.Ticks); i++ {
		if ts.Ticks[i] != ts.Ticks[i-1] && !isStart[i] {
			t.Fatalf("tick boundary at %d splits a burst (ticks %d -> %d)", i, ts.Ticks[i-1], ts.Ticks[i])
		}
	}
}

// TestPermutedTickedPerTickVectors: the within-tick permutation must
// preserve every per-tick frequency vector of the inner stream — the
// windowed form of the order-insensitivity pin.
func TestPermutedTickedPerTickVectors(t *testing.T) {
	cfg := tickedCfg()
	perm := PermutedReplay{}.GenerateTicked(cfg)
	inner := Ticked(Zipf{}, cfg)
	if perm.Stream.Len() != inner.Stream.Len() {
		t.Fatalf("length drift: %d vs %d", perm.Stream.Len(), inner.Stream.Len())
	}
	perTick := func(ts *TickedStream) map[uint64]stream.Vector {
		out := make(map[uint64]stream.Vector)
		for i, u := range ts.Stream.Updates() {
			v := out[ts.Ticks[i]]
			if v == nil {
				v = make(stream.Vector)
				out[ts.Ticks[i]] = v
			}
			v[u.Item] += u.Delta
		}
		return out
	}
	pv, iv := perTick(perm), perTick(inner)
	if len(pv) != len(iv) {
		t.Fatalf("tick segment count drift: %d vs %d", len(pv), len(iv))
	}
	for tick, v := range iv {
		for it, c := range v {
			if pv[tick][it] != c {
				t.Fatalf("tick %d item %d: %d vs %d", tick, it, pv[tick][it], c)
			}
		}
	}
	// And the permutation must actually permute something within ticks.
	same := true
	for i, u := range perm.Stream.Updates() {
		if inner.Stream.Updates()[i] != u {
			same = false
			break
		}
	}
	if same {
		t.Fatal("permuted ticked stream equals the inner stream update for update")
	}
}

// TestWindowedBenchBackendsAgreeExactly is the windowed form of the
// backend equality: serial and the in-process gsumd window-backend
// topology (contiguous chunks on 2 and 3 worker daemons, merged by the
// coordinator) must produce bit-identical windowed estimates on the
// same ticked scenario — for every generator in the catalog, so a new
// scenario cannot land without joining the windowed contract. (In-memory
// windowed cut-and-merge is internal/window's serial-vs-parallel tests.)
func TestWindowedBenchBackendsAgreeExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up daemons")
	}
	g := gfunc.F2Func()
	for _, gen := range Generators() {
		spec := BenchSpec{
			Generator: gen,
			Cfg:       Config{N: 1 << 10, Items: 128, Length: 4000, Seed: 3, Ticks: 32},
			G:         g,
			Opts:      core.Options{M: 1 << 10, Eps: 0.25, Seed: 11, Lambda: 1.0 / 16},
			Window:    8,
		}
		serial := spec
		serial.Backend = "serial"
		want, err := RunBench(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", gen.Name(), err)
		}
		if want.Window != 8 || want.LastTick == 0 {
			t.Fatalf("%s: windowed result not populated: %+v", gen.Name(), want)
		}
		for _, workers := range []int{2, 3} {
			dm := spec
			dm.Backend, dm.Workers = "daemon", workers
			got, err := RunBench(dm)
			if err != nil {
				t.Fatalf("%s daemon x%d: %v", gen.Name(), workers, err)
			}
			if got.Estimate != want.Estimate {
				t.Fatalf("%s daemon x%d estimate %v != serial %v", gen.Name(), workers, got.Estimate, want.Estimate)
			}
			if got.StaleTicks != want.StaleTicks {
				t.Fatalf("%s daemon x%d stale %d != serial %d", gen.Name(), workers, got.StaleTicks, want.StaleTicks)
			}
		}
	}
}

// TestWindowedBenchForgets: with a window much shorter than the
// stream, the windowed exact is far below the whole-stream exact, and
// the estimate tracks the windowed exact.
func TestWindowedBenchForgets(t *testing.T) {
	g := gfunc.F2Func()
	spec := BenchSpec{
		Generator: Zipf{},
		Cfg:       Config{N: 1 << 10, Items: 128, Length: 8000, Seed: 9, Ticks: 64},
		G:         g,
		Opts:      core.Options{M: 1 << 10, Eps: 0.25, Seed: 11, Lambda: 1.0 / 16},
		Backend:   "serial",
		Window:    4,
	}
	res, err := RunBench(spec)
	if err != nil {
		t.Fatal(err)
	}
	whole := Zipf{}.Generate(spec.Cfg.withDefaults()).Vector().Sum(g.Eval)
	if res.Exact >= whole/2 {
		t.Fatalf("windowed exact %v not much below whole-stream exact %v", res.Exact, whole)
	}
	if res.RelErr > 0.5 {
		t.Fatalf("windowed estimate rel err %.3f implausibly high (estimate %v vs exact %v; stale %d)",
			res.RelErr, res.Estimate, res.Exact, res.StaleTicks)
	}
}
