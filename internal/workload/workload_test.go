package workload

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

var testCfg = Config{N: 1 << 12, Items: 256, Length: 20000, Seed: 7}

// streamsEqual reports byte-identity of two streams (same domain, same
// update sequence).
func streamsEqual(a, b *stream.Stream) bool {
	if a.N() != b.N() || a.Len() != b.Len() {
		return false
	}
	au, bu := a.Updates(), b.Updates()
	for i := range au {
		if au[i] != bu[i] {
			return false
		}
	}
	return true
}

// TestGeneratorsDeterministic: same seed ⇒ byte-identical stream across
// runs, different seed ⇒ a different stream.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range Generators() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			a := g.Generate(testCfg)
			b := g.Generate(testCfg)
			if !streamsEqual(a, b) {
				t.Fatalf("%s: same seed produced different streams", g.Name())
			}
			other := testCfg
			other.Seed = 8
			c := g.Generate(other)
			if streamsEqual(a, c) {
				t.Fatalf("%s: different seeds produced identical streams", g.Name())
			}
			if a.Len() != testCfg.Length {
				t.Fatalf("%s: length %d, want %d", g.Name(), a.Len(), testCfg.Length)
			}
		})
	}
}

// TestRegistry checks lookup and naming round-trips.
func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != len(Generators()) {
		t.Fatalf("Names() has %d entries, Generators() %d", len(names), len(Generators()))
	}
	for _, want := range []string{"zipf", "uniform", "needle", "bursty", "permuted"} {
		g, ok := Lookup(want)
		if !ok {
			t.Fatalf("Lookup(%q) failed", want)
		}
		if g.Name() != want {
			t.Fatalf("Lookup(%q).Name() = %q", want, g.Name())
		}
		if g.Description() == "" {
			t.Fatalf("%s: empty description", want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

// TestWorkloadShapes spot-checks that each scenario has the heavy-hitter
// structure it advertises.
func TestWorkloadShapes(t *testing.T) {
	maxShare := func(s *stream.Stream) (uint64, float64) {
		v := s.Vector()
		var top uint64
		var best int64
		for it, c := range v {
			if c > best {
				best, top = c, it
			}
		}
		return top, float64(best) / float64(s.Len())
	}

	zipf, _ := Lookup("zipf")
	if _, share := maxShare(zipf.Generate(testCfg)); share < 0.05 {
		t.Errorf("zipf: top item carries %.3f of the stream, expected a dominant head", share)
	}
	uniform, _ := Lookup("uniform")
	if _, share := maxShare(uniform.Generate(testCfg)); share > 0.05 {
		t.Errorf("uniform: top item carries %.3f of the stream, expected no heavy hitter", share)
	}
	needle, _ := Lookup("needle")
	if _, share := maxShare(needle.Generate(testCfg)); share < 0.45 || share > 0.55 {
		t.Errorf("needle: needle carries %.3f of the stream, want ~0.5", share)
	}

	// Bursty: mean run length far above 1 (clustered arrivals).
	bursty, _ := Lookup("bursty")
	bs := bursty.Generate(testCfg)
	runs := 0
	var prev uint64
	for i, u := range bs.Updates() {
		if i == 0 || u.Item != prev {
			runs++
			prev = u.Item
		}
	}
	if mean := float64(bs.Len()) / float64(runs); mean < 4 {
		t.Errorf("bursty: mean run length %.1f, expected clustered arrivals", mean)
	}

	// Permuted: same frequency vector as zipf, different arrival order.
	perm, _ := Lookup("permuted")
	ps, zs := perm.Generate(testCfg), zipf.Generate(testCfg)
	pv, zv := ps.Vector(), zs.Vector()
	if len(pv) != len(zv) {
		t.Fatalf("permuted: %d distinct items vs zipf's %d", len(pv), len(zv))
	}
	for it, c := range zv {
		if pv[it] != c {
			t.Fatalf("permuted: frequency of %d is %d, zipf has %d", it, pv[it], c)
		}
	}
	if streamsEqual(ps, zs) {
		t.Error("permuted: arrival order identical to zipf (permutation is a no-op)")
	}
}

// TestDeterminismAcrossWorkers: the generated stream does not depend on
// how it is later sharded, and the sharded kind's estimate is
// bit-identical across shard counts (linearity + seed discipline).
func TestDeterminismAcrossWorkers(t *testing.T) {
	g := gfunc.F2Func()
	opts := core.Options{N: testCfg.N, M: 1 << 10, Eps: 0.25, Seed: 13, Lambda: 1.0 / 16}
	for _, gen := range Generators() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			s := gen.Generate(testCfg)
			serial := core.NewOnePass(g, opts)
			serial.Process(s)
			want := serial.Estimate()
			for _, workers := range []int{2, 3, 8} {
				// Regenerate: a fresh stream per worker count proves the
				// generator itself is oblivious to sharding.
				s2 := gen.Generate(testCfg)
				if !streamsEqual(s, s2) {
					t.Fatalf("workers=%d: regenerated stream differs", workers)
				}
				e, err := backend.Open(backend.Spec{Kind: backend.KindSharded, G: g.Name(), Options: opts, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := backend.Process(e, s2); err != nil {
					t.Fatal(err)
				}
				if got := e.Estimate(); got != want {
					t.Fatalf("workers=%d: estimate %v != serial %v", workers, got, want)
				}
			}
		})
	}
}

// TestBenchBackendsAgreeExactly is the end-to-end acceptance check:
// serial, sharded (contiguous chunks sketched concurrently), and daemon (HTTP
// worker/coordinator, pushed over /v1/stream) backends return
// bit-identical estimates for the same seed, for every workload.
func TestBenchBackendsAgreeExactly(t *testing.T) {
	g := gfunc.F2Func()
	opts := core.Options{M: 1 << 10, Eps: 0.25, Seed: 21, Lambda: 1.0 / 16}
	cfg := Config{N: 1 << 12, Items: 200, Length: 8000, Seed: 5}
	backends := []string{"serial", "sharded", "daemon"}
	for _, gen := range Generators() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			var ests []float64
			for _, backend := range backends {
				res, err := RunBench(BenchSpec{
					Generator: gen, Cfg: cfg, G: g, Opts: opts,
					Backend: backend, Workers: 3,
				})
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				if res.Updates != cfg.Length {
					t.Fatalf("%s: %d updates, want %d", backend, res.Updates, cfg.Length)
				}
				if res.Exact <= 0 {
					t.Fatalf("%s: exact %v", backend, res.Exact)
				}
				if res.RelErr > 1.0 {
					t.Errorf("%s: relative error %.3f is implausibly large", backend, res.RelErr)
				}
				ests = append(ests, res.Estimate)
			}
			for i := 1; i < len(ests); i++ {
				if ests[i] != ests[0] {
					t.Fatalf("backend %s estimate %v != %s estimate %v",
						backends[i], ests[i], backends[0], ests[0])
				}
			}
		})
	}
}

// TestRunBenchValidation covers the error paths.
func TestRunBenchValidation(t *testing.T) {
	if _, err := RunBench(BenchSpec{}); err == nil {
		t.Fatal("RunBench without a generator succeeded")
	}
	gen, _ := Lookup("zipf")
	_, err := RunBench(BenchSpec{Generator: gen, G: gfunc.F2Func(), Backend: "bogus",
		Cfg: Config{N: 1 << 10, Items: 16, Length: 100, Seed: 1}})
	if err == nil {
		t.Fatal("RunBench with unknown backend succeeded")
	}
}

// TestWorkingSetSharedAcrossScenarios: same Config ⇒ same working set,
// so zipf and uniform streams over one Config touch the same items.
func TestWorkingSetSharedAcrossScenarios(t *testing.T) {
	rngA := util.NewSplitMix64(testCfg.Seed)
	a := workingSet(testCfg.withDefaults(), rngA.Fork())
	rngB := util.NewSplitMix64(testCfg.Seed)
	b := workingSet(testCfg.withDefaults(), rngB.Fork())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("working set diverged at %d", i)
		}
	}
}
