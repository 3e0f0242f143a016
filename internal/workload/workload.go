package workload

import (
	"fmt"
	"sort"

	"repro/internal/stream"
	"repro/internal/util"
)

// Config parameterizes a scenario. All generators are deterministic
// functions of the full Config value. The JSON tags are the stream
// block of the sweep config file (internal/sweep).
type Config struct {
	// N is the domain size; generated items lie in [0, N).
	N uint64 `json:"n"`
	// Items is the working-set cardinality: the number of distinct items
	// the generator draws from (clamped to N).
	Items int `json:"items"`
	// Length is the number of updates in the generated stream.
	Length int `json:"length"`
	// Seed drives every random choice.
	Seed uint64 `json:"seed"`
	// Ticks is the time span of the stream in ticks for the ticked
	// variants (TickedGenerator); 0 means DefaultTicks. Whole-stream
	// generation ignores it.
	Ticks int `json:"ticks,omitempty"`
}

// Validate rejects configurations a generator would otherwise degrade
// on: zero or negative domain, working set, or length, and a negative
// tick span. CLI frontends (gsum bench, gsum sweep) call it on the
// explicit user configuration BEFORE withDefaults, so a typo like
// `-items 0` is an error message instead of a silently substituted
// default deep inside a generator.
func (c Config) Validate() error {
	if c.N == 0 {
		return fmt.Errorf("workload: domain size N must be positive")
	}
	if c.Items <= 0 {
		return fmt.Errorf("workload: working-set cardinality Items must be positive, got %d", c.Items)
	}
	if c.Length <= 0 {
		return fmt.Errorf("workload: stream length must be positive, got %d", c.Length)
	}
	if c.Ticks < 0 {
		return fmt.Errorf("workload: tick span must be non-negative, got %d", c.Ticks)
	}
	return nil
}

// MaxAlpha bounds the skew exponents ValidateAlpha accepts; beyond it
// the zipf CDF is numerically a point mass and the scenario degenerates.
const MaxAlpha = 8.0

// ValidateAlpha rejects skew exponents outside (0, MaxAlpha] (including
// NaN). The generator structs treat a non-positive Alpha as "use the
// default", so frontends that accept alpha from a user call this to
// turn the silent fallback into an error.
func ValidateAlpha(alpha float64) error {
	if !(alpha > 0) || alpha > MaxAlpha {
		return fmt.Errorf("workload: alpha must be in (0, %g], got %v", MaxAlpha, alpha)
	}
	return nil
}

// WithDefaults returns the config with bench-scale defaults filled into
// zero fields — exactly the defaulting RunBench applies before
// generating. Exported for frontends (internal/sweep) that must derive
// the same fully-resolved scenario the bench runner will use.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills zero fields with bench-scale defaults.
func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 1 << 16
	}
	if c.Items <= 0 {
		c.Items = 4096
	}
	if uint64(c.Items) > c.N {
		c.Items = int(c.N)
	}
	if c.Length <= 0 {
		c.Length = 1 << 17
	}
	return c
}

// Generator is a deterministic scenario: it maps a Config to a turnstile
// stream. Implementations must be pure — no hidden state, no global
// randomness — so that the same (generator, Config) pair always yields a
// byte-identical stream.
type Generator interface {
	// Name is the registry key (`gsum bench -workload <name>`).
	Name() string
	// Description is a one-line summary for usage text and docs.
	Description() string
	// Generate builds the stream for cfg.
	Generate(cfg Config) *stream.Stream
}

// registry holds the default generator catalog in stable order: the
// five benign scenarios first, then the adversarial/drifting/replay
// five added with the sweep engine.
var registry = []Generator{
	Zipf{Alpha: 1.1},
	Uniform{},
	Needle{},
	Bursty{},
	PermutedReplay{},
	Drift{},
	Adversarial{},
	FlashCrowd{},
	Diurnal{},
	TraceReplay{},
}

// Generators returns the default catalog in stable order.
func Generators() []Generator {
	out := make([]Generator, len(registry))
	copy(out, registry)
	return out
}

// Names returns the sorted names of the default catalog.
func Names() []string {
	out := make([]string, len(registry))
	for i, g := range registry {
		out[i] = g.Name()
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a generator by name from the default catalog.
func Lookup(name string) (Generator, bool) {
	for _, g := range registry {
		if g.Name() == name {
			return g, true
		}
	}
	return nil, false
}

// Configured resolves name from the default catalog and configures it:
// alpha sets the skew of zipf, bursty, permuted (its zipf inner stream)
// and diurnal; sketchSeed aims adversarial at the CountSketch opened from
// that seed; trace points the trace scenario at a CSV file. A zero alpha
// or sketchSeed, or an empty trace, keeps the catalog default. `gsum
// bench` and the sweep both resolve their workloads here.
func Configured(name string, alpha float64, sketchSeed uint64, trace string) (Generator, bool) {
	gen, ok := Lookup(name)
	if !ok {
		return nil, false
	}
	switch {
	case name == "zipf" && alpha > 0:
		gen = Zipf{Alpha: alpha}
	case name == "bursty" && alpha > 0:
		gen = Bursty{Alpha: alpha}
	case name == "permuted" && alpha > 0:
		gen = PermutedReplay{Inner: Zipf{Alpha: alpha}}
	case name == "diurnal" && alpha > 0:
		gen = Diurnal{Alpha: alpha}
	case name == "adversarial":
		gen = Adversarial{SketchSeed: sketchSeed}
	case name == "trace":
		gen = TraceReplay{Path: trace}
	}
	return gen, true
}

// workingSet draws cfg.Items distinct items from [0, N) deterministically.
// Every generator derives its working set from the same fork index, so
// two scenarios with the same Config share item identities — useful when
// comparing estimates across workload shapes. The items drawn so far are
// an open-addressed set of item+1 (0 marks an empty slot), at most half
// full, probed linearly from a Fibonacci hash of the item.
func workingSet(cfg Config, rng *util.SplitMix64) []uint64 {
	bits := 1
	for 1<<bits < 2*cfg.Items {
		bits++
	}
	seen := make([]uint64, 1<<bits)
	mask := uint64(len(seen) - 1)
	out := make([]uint64, 0, cfg.Items)
	for len(out) < cfg.Items {
		it := rng.Uint64n(cfg.N)
		key := it + 1
		i := (it * 0x9e3779b97f4a7c15) >> (64 - bits)
		for seen[i] != 0 && seen[i] != key {
			i = (i + 1) & mask
		}
		if seen[i] != 0 {
			continue // drawn before
		}
		seen[i] = key
		out = append(out, it)
	}
	return out
}
