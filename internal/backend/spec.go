package backend

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/window"
	"repro/internal/wire"
)

// Kind names a registered estimator family.
type Kind string

// The built-in estimator kinds. Every value here has a registry entry
// in registry.go; Kinds() reports the full set at run time.
const (
	// KindOnePass is the Theorem 2 one-pass g-SUM estimator.
	KindOnePass Kind = "onepass"
	// KindTwoPass is the Theorem 3 two-pass g-SUM estimator: replay the
	// stream, call FinishPass1 (the TwoPass capability), replay again.
	KindTwoPass Kind = "twopass"
	// KindSharded is the one-pass estimator with a parallel Process: it
	// sketches Workers contiguous chunks of the stream (0 = GOMAXPROCS)
	// concurrently and merges them by linearity into its one resident
	// sketch. Every other method is the onepass kind's.
	KindSharded Kind = "sharded"
	// KindWindow is the sliding-window one-pass estimator: updates land
	// at the current tick, Advance (the Windowed capability) moves the
	// clock, and Estimate covers the trailing Window.W ticks.
	KindWindow Kind = "window"
	// KindCountSketch is a raw CountSketch: F2 estimates plus per-item
	// point queries (the PointQuerier capability).
	KindCountSketch Kind = "countsketch"
	// KindHeavy is one Algorithm 2 instance: the cover of (g, λ)-heavy
	// hitters (the CoverReporter capability); Estimate is the cover's
	// weight sum.
	KindHeavy Kind = "heavy"
	// KindExact is the linear-space exact baseline.
	KindExact Kind = "exact"
)

// Spec fully describes one estimator: which family to build (Kind), the
// g function it sums (G, a catalog name), the sketch options, and the
// kind-specific extras. It is the unit of configuration every frontend
// exchanges: Open builds from it, the daemon serves it on /v1/config,
// and Fingerprint condenses it for the pre-merge handshake.
//
// The zero value is not usable: Kind and Options.N are required, and
// kinds that sum a function require G. Everything else has documented
// defaults resolved by Normalize.
type Spec struct {
	// Kind selects the registered estimator family.
	Kind Kind `json:"kind"`
	// G names the catalog function to sum. Required for the onepass,
	// twopass, sharded, window, heavy, and exact kinds; ignored by
	// countsketch. It is the envelope source when Options.Envelope is 0.
	// The onepass, sharded and window kinds also answer post-hoc queries
	// for other functions from the same state (FuncQuerier): size such a
	// sketch for all of them with Options.Envelope, their largest H(M).
	G string `json:"g,omitempty"`
	// Options parameterizes the sketches (see core.Options).
	Options core.Options `json:"options"`
	// Window parameterizes the window kind (ignored by the others).
	Window window.Config `json:"window"`
	// Workers is the chunk count of Process for the sharded kind (0 =
	// GOMAXPROCS, at most 256) and the twopass kind (0 = GOMAXPROCS,
	// 1 = serial). Distributed frontends reuse it as the worker daemon
	// count. Other kinds ingest serially and ignore it.
	Workers int `json:"workers,omitempty"`
	// Rows, Buckets, and TopK size the countsketch kind directly
	// (defaults 5, 1024, and 0 = no candidate tracker).
	Rows    int    `json:"rows,omitempty"`
	Buckets uint64 `json:"buckets,omitempty"`
	TopK    int    `json:"topk,omitempty"`
}

// Normalize validates s and resolves every defaulted field, returning
// the canonical Spec that Open, Fingerprint, and CanonicalJSON operate
// on. Invalid values are errors, never silent clamps: an unknown Kind,
// a zero domain, an out-of-range accuracy parameter, or a missing
// catalog function all fail here, before any sketch is built.
func (s Spec) Normalize() (Spec, error) {
	b, ok := registry[s.Kind]
	if !ok {
		if s.Kind == "" {
			return Spec{}, fmt.Errorf("backend: Spec.Kind is required (one of %s)", strings.Join(Kinds(), ", "))
		}
		return Spec{}, fmt.Errorf("backend: unknown kind %q (registered: %s)", s.Kind, strings.Join(Kinds(), ", "))
	}
	o := s.Options
	if o.N == 0 {
		return Spec{}, fmt.Errorf("backend: %s: Options.N (domain size) must be positive", s.Kind)
	}
	if o.M < 0 {
		return Spec{}, fmt.Errorf("backend: %s: Options.M must be non-negative, got %d", s.Kind, o.M)
	}
	if o.Eps < 0 || o.Eps >= 1 {
		return Spec{}, fmt.Errorf("backend: %s: Options.Eps must be in [0, 1), got %v", s.Kind, o.Eps)
	}
	if o.Delta < 0 || o.Delta >= 1 {
		return Spec{}, fmt.Errorf("backend: %s: Options.Delta must be in [0, 1), got %v", s.Kind, o.Delta)
	}
	if o.Lambda < 0 || o.Lambda > 1 {
		return Spec{}, fmt.Errorf("backend: %s: Options.Lambda must be in [0, 1], got %v", s.Kind, o.Lambda)
	}
	if o.Levels < 0 || o.Levels > 30 {
		return Spec{}, fmt.Errorf("backend: %s: Options.Levels must be in [0, 30], got %d", s.Kind, o.Levels)
	}
	if o.WidthFactor < 0 {
		return Spec{}, fmt.Errorf("backend: %s: Options.WidthFactor must be non-negative, got %v", s.Kind, o.WidthFactor)
	}
	if o.Envelope < 0 {
		return Spec{}, fmt.Errorf("backend: %s: Options.Envelope must be non-negative, got %v", s.Kind, o.Envelope)
	}
	if s.Workers < 0 {
		return Spec{}, fmt.Errorf("backend: %s: Workers must be non-negative, got %d", s.Kind, s.Workers)
	}
	s.Options = o.WithDefaults()
	if b.needsG {
		g, err := CatalogFunc(s.G)
		if err != nil {
			return Spec{}, fmt.Errorf("backend: %s: %w", s.Kind, err)
		}
		// Pin the measured envelope so every process that normalizes this
		// Spec — and every shard or staging estimator built from it —
		// resolves to byte-identical configuration.
		s.Options.Envelope = core.EnvelopeFor(g, s.Options)
	}
	if b.normalize != nil {
		if err := b.normalize(&s); err != nil {
			return Spec{}, err
		}
	}
	return s, nil
}

// Fingerprint digests the sketch layout version and the normalized Spec
// — kind, function, every option, and the kind-specific extras — with
// the internal/wire fold. Two processes hold merge-compatible estimators
// if their Spec fingerprints agree, which is what the daemon's
// /v1/config handshake checks before any snapshot ships. The layout
// version (wire.Version) is part of it because the Spec alone does not
// say what a build makes of it: the same Spec opens a different sketch
// under every layout, and a worker one layout behind must be refused at
// the handshake, not when its first snapshot fails to decode. A Spec that
// does not normalize is digested as written (its fingerprint only ever
// meets another in an error path).
func (s Spec) Fingerprint() uint64 {
	if n, err := s.Normalize(); err == nil {
		s = n
	}
	h := wire.Fingerprint(0, uint64(wire.Version))
	h = wire.FingerprintString(h, string(s.Kind))
	h = wire.FingerprintString(h, s.G)
	h = wire.Fingerprint(h, core.OptionsFingerprint(s.Options))
	h = wire.Fingerprint(h, s.Window.W)
	h = wire.Fingerprint(h, uint64(s.Window.K))
	h = wire.Fingerprint(h, uint64(s.Workers))
	h = wire.Fingerprint(h, uint64(s.Rows))
	h = wire.Fingerprint(h, s.Buckets)
	return wire.Fingerprint(h, uint64(s.TopK))
}

// CanonicalJSON returns the canonical encoding of the Spec: the
// normalized form marshaled with a fixed field order, so equal
// configurations encode to equal bytes on every machine. The daemon
// serves this from /v1/config.
func (s Spec) CanonicalJSON() ([]byte, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// ParseSpec decodes a Spec from its JSON encoding (canonical or not)
// and normalizes it.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("backend: bad spec JSON: %w", err)
	}
	return s.Normalize()
}

// CatalogFunc resolves a catalog function by name; the error lists the
// catalog so CLI surfaces can echo it.
func CatalogFunc(name string) (gfunc.Func, error) {
	if name == "" {
		return nil, fmt.Errorf("a catalog function name is required (catalog: %s)", strings.Join(catalogNames(), ", "))
	}
	for _, e := range gfunc.Catalog() {
		if e.Func.Name() == name {
			return e.Func, nil
		}
	}
	return nil, fmt.Errorf("unknown catalog function %q (catalog: %s)", name, strings.Join(catalogNames(), ", "))
}

func catalogNames() []string {
	names := make([]string, 0, len(gfunc.Catalog()))
	for _, e := range gfunc.Catalog() {
		names = append(names, e.Func.Name())
	}
	sort.Strings(names)
	return names
}
