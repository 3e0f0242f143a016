package backend

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/heavy"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/window"
)

// builder is one registry entry: how to validate, default, and
// construct a kind.
type builder struct {
	kind     Kind
	describe string
	// needsG: Normalize resolves Spec.G through the catalog and pins the
	// measured envelope into Options.
	needsG bool
	// normalize applies kind-specific validation and defaulting to an
	// already generically-validated Spec.
	normalize func(s *Spec) error
	// open constructs the estimator from a normalized Spec.
	open func(s Spec) (Estimator, error)
}

var registry = map[Kind]*builder{}

func register(b *builder) {
	if _, dup := registry[b.kind]; dup {
		panic("backend: duplicate kind " + string(b.kind))
	}
	registry[b.kind] = b
}

// Kinds returns the registered kind names, sorted. CLI surfaces print
// this instead of a hand-maintained list, so help text cannot drift
// from the code.
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of a registered kind ("" if
// unknown).
func Describe(k Kind) string {
	if b, ok := registry[k]; ok {
		return b.describe
	}
	return ""
}

// Open validates and normalizes spec, then constructs the estimator
// through the registry. It is a pure function of the Spec: two Open
// calls with equal Specs — in one process or two — return estimators
// with identical hash functions and wire fingerprints.
func Open(spec Spec) (Estimator, error) {
	n, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	return registry[n.Kind].open(n)
}

func init() {
	register(&builder{
		kind:     KindOnePass,
		describe: "one-pass g-SUM estimator (Theorem 2 inside the recursive sketch)",
		needsG:   true,
		open: func(s Spec) (Estimator, error) {
			g, err := CatalogFunc(s.G)
			if err != nil {
				return nil, err
			}
			return core.NewOnePass(g, s.Options), nil
		},
	})
	register(&builder{
		kind:     KindTwoPass,
		describe: "two-pass g-SUM estimator (Theorem 3; replay, FinishPass1, replay)",
		needsG:   true,
		open: func(s Spec) (Estimator, error) {
			g, err := CatalogFunc(s.G)
			if err != nil {
				return nil, err
			}
			return &twoPassEstimator{core.NewTwoPass(g, s.Options), s.Workers}, nil
		},
	})
	register(&builder{
		kind:     KindSharded,
		describe: "one-pass estimator whose Process ingests Workers contiguous chunks in parallel and merges them once",
		needsG:   true,
		open: func(s Spec) (Estimator, error) {
			g, err := CatalogFunc(s.G)
			if err != nil {
				return nil, err
			}
			return &shardedEstimator{core.NewOnePass(g, s.Options), s.Workers}, nil
		},
	})
	register(&builder{
		kind:     KindWindow,
		describe: "sliding-window one-pass estimator (estimates cover the last Window.W ticks)",
		needsG:   true,
		normalize: func(s *Spec) (err error) {
			s.Window, err = s.Window.Normalize()
			return err
		},
		open: func(s Spec) (Estimator, error) {
			g, err := CatalogFunc(s.G)
			if err != nil {
				return nil, err
			}
			w, err := window.New(g, s.Options, s.Window)
			if err != nil {
				return nil, err // not a typed-nil *window.Window
			}
			return w, nil
		},
	})
	register(&builder{
		kind:     KindCountSketch,
		describe: "raw CountSketch (F2 estimates and per-item point queries)",
		normalize: func(s *Spec) error {
			if s.Rows < 0 || s.TopK < 0 {
				return fmt.Errorf("backend: countsketch: Rows and TopK must be non-negative")
			}
			if s.Rows == 0 {
				s.Rows = 5
			}
			if s.Buckets == 0 {
				s.Buckets = 1 << 10
			}
			if s.Buckets > sketch.MaxBuckets {
				return fmt.Errorf("backend: countsketch: Buckets must be at most %d, got %d", uint64(sketch.MaxBuckets), s.Buckets)
			}
			// The kind is function-free; canonicalize G away here so every
			// frontend fingerprints the same sketch identically.
			s.G = ""
			return nil
		},
		open: func(s Spec) (Estimator, error) {
			rng := util.NewSplitMix64(s.Options.Seed)
			var cs *sketch.CountSketch
			if s.TopK > 0 {
				cs = sketch.NewCountSketchTopK(s.Rows, s.Buckets, s.TopK, rng)
			} else {
				cs = sketch.NewCountSketch(s.Rows, s.Buckets, rng)
			}
			return &countSketchEstimator{cs}, nil
		},
	})
	register(&builder{
		kind:     KindHeavy,
		describe: "one Algorithm 2 instance: the cover of (g, λ)-heavy hitters",
		needsG:   true,
		open: func(s Spec) (Estimator, error) {
			g, err := CatalogFunc(s.G)
			if err != nil {
				return nil, err
			}
			o := s.Options
			return &heavyEstimator{heavy.NewOnePass(heavy.OnePassConfig{
				G: g, Lambda: o.Lambda, Eps: o.Eps, Delta: o.Delta,
				H: o.Envelope, WidthFactor: o.WidthFactor,
			}, util.NewSplitMix64(o.Seed))}, nil
		},
	})
	register(&builder{
		kind:     KindExact,
		describe: "exact linear-space baseline (stores the frequency vector)",
		needsG:   true,
		open: func(s Spec) (Estimator, error) {
			g, err := CatalogFunc(s.G)
			if err != nil {
				return nil, err
			}
			return core.NewExact(g), nil
		},
	})
}

// Process drives a whole in-memory stream through est using its richest
// capability: the sharded kind ingests contiguous chunks in parallel and
// merges them once, the two-pass kind replays it for both passes (chunked
// when its Spec set Workers), and every other kind streams it through the
// batched ingestion path.
// This is the one bulk-ingest door; frontends call it instead of
// switching on concrete types.
func Process(est Estimator, s *stream.Stream) error {
	switch e := est.(type) {
	case *twoPassEstimator:
		// RunParallel resolves the worker count itself (0 or negative
		// means GOMAXPROCS, 1 means the serial Run) and is exact at any
		// worker count.
		_, err := e.RunParallel(s, e.workers)
		return err
	case *shardedEstimator:
		// Chunks are cut by position, so the result is a constant of
		// (stream, workers) whatever the scheduler does.
		return e.ProcessParallel(s, e.workers)
	default:
		stream.Batches(s.Updates(), est.UpdateBatch)
		return nil
	}
}

// Merge folds src into dst. Both must come from Open of equal Specs:
// Merge refuses a src whose fingerprint differs from dst's (another seed,
// function or shape) before either path runs, leaving dst as it was.
// Kinds with an in-memory merge then use it; the rest fold through the
// wire format.
func Merge(dst, src Estimator) error {
	if df, sf := dst.Fingerprint(), src.Fingerprint(); df != sf {
		return fmt.Errorf("backend: merge refused: fingerprint %#x is not the receiver's %#x (different seed or configuration)", sf, df)
	}
	switch d := unwrapSharded(dst).(type) {
	case *core.OnePassEstimator:
		if s, ok := unwrapSharded(src).(*core.OnePassEstimator); ok {
			return d.Merge(s)
		}
	case *window.Window:
		if s, ok := src.(*window.Window); ok {
			return d.Merge(s)
		}
	case *countSketchEstimator:
		if s, ok := src.(*countSketchEstimator); ok {
			return d.CountSketch.Merge(s.CountSketch)
		}
	case *heavyEstimator:
		if s, ok := src.(*heavyEstimator); ok {
			return d.OnePass.Merge(s.OnePass)
		}
	}
	blob, err := src.MarshalBinary()
	if err != nil {
		return err
	}
	return dst.UnmarshalBinary(blob)
}

// unwrapSharded returns the resident sketch of a sharded estimator, which
// merges in memory as any onepass one does, and every other kind as is.
func unwrapSharded(e Estimator) Estimator {
	if s, ok := e.(*shardedEstimator); ok {
		return s.OnePassEstimator
	}
	return e
}
