package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/backend"
	"repro/internal/workload"
)

// Config is the sweep matrix description parsed from the `gsum sweep -f`
// JSON file. The estimator block is the repository's canonical Spec JSON
// (the same encoding gsumd serves on /v1/config), the stream block is
// workload.Config, and the remaining fields are the matrix axes: every
// combination of workload x backend x (transport, daemon cells only) x
// eps x workers becomes one cell.
type Config struct {
	// Spec is the base estimator configuration for every cell. Kind is
	// derived per cell (onepass/sharded/window by backend and window
	// mode) and must be left empty or "onepass"; G is required. Options
	// defaults mirror `gsum bench`: M 1024, Lambda 1/16, and Seed
	// Stream.Seed*7 when zero. Spec.Window, when W > 0, switches every
	// cell to sliding-window mode over the last W ticks (K is the
	// histogram capacity).
	Spec backend.Spec `json:"spec"`
	// Stream is the scenario configuration shared by every cell.
	Stream workload.Config `json:"stream"`
	// Workloads names the scenario generators to sweep (workload.Names).
	Workloads []string `json:"workloads"`
	// Backends names the ingestion topologies (workload.Backends).
	Backends []string `json:"backends"`
	// Transports lists the daemon wire transports ("json", "stream");
	// it multiplies daemon cells only. Empty means ["json"].
	Transports []string `json:"transports,omitempty"`
	// Eps lists the accuracy targets to sweep.
	Eps []float64 `json:"eps"`
	// Workers lists the shard/daemon counts to sweep. Empty means [1].
	Workers []int `json:"workers,omitempty"`
	// Alpha overrides the skew exponent of the skew-parameterized
	// scenarios (zipf, bursty, permuted, diurnal). 0 keeps the
	// per-generator defaults.
	Alpha float64 `json:"alpha,omitempty"`
	// Trace is the CSV path for the trace scenario ("" = embedded trace).
	Trace string `json:"trace,omitempty"`
	// PointK is how many true top items each cell point-queries against
	// a CountSketch seeded with Spec.Options.Seed (0 = 16).
	PointK int `json:"point_k,omitempty"`
	// Procs caps concurrent worker processes (0 = GOMAXPROCS).
	Procs int `json:"procs,omitempty"`
}

// DefaultPointK is how many true top items a cell point-queries when the
// config does not say.
const DefaultPointK = 16

// ParseConfig decodes and normalizes a sweep config from JSON bytes.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("sweep: bad config JSON: %w", err)
	}
	return c.Normalize()
}

// ParseConfigFile reads and normalizes the sweep config at path.
func ParseConfigFile(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("sweep: %w", err)
	}
	c, err := ParseConfig(data)
	if err != nil {
		return Config{}, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return c, nil
}

// Normalize validates the config and resolves every defaulted field.
// Like backend.Spec.Normalize, invalid values are errors, never silent
// clamps — a bad axis value fails here, before any process is launched.
// The result is the canonical form every process derives the SAME cell
// list from (Cells is only meaningful on a normalized Config).
func (c Config) Normalize() (Config, error) {
	// In the stream block zero means "use the bench default", but an
	// explicit negative is a config error — fill only the zero fields
	// before validating, so `"items": -3` fails instead of silently
	// becoming 4096.
	d := workload.Config{}.WithDefaults()
	if c.Stream.N == 0 {
		c.Stream.N = d.N
	}
	if c.Stream.Items == 0 {
		c.Stream.Items = d.Items
	}
	if c.Stream.Length == 0 {
		c.Stream.Length = d.Length
	}
	if err := c.Stream.Validate(); err != nil {
		return Config{}, fmt.Errorf("sweep: stream: %w", err)
	}
	c.Stream = c.Stream.WithDefaults()
	if len(c.Workloads) == 0 {
		return Config{}, fmt.Errorf("sweep: workloads must name at least one scenario (%s)",
			strings.Join(workload.Names(), ", "))
	}
	for _, w := range c.Workloads {
		if _, ok := workload.Lookup(w); !ok {
			return Config{}, fmt.Errorf("sweep: unknown workload %q (available: %s)",
				w, strings.Join(workload.Names(), ", "))
		}
	}
	if c.Alpha != 0 {
		if err := workload.ValidateAlpha(c.Alpha); err != nil {
			return Config{}, fmt.Errorf("sweep: %w", err)
		}
	}
	if err := (workload.TraceReplay{Path: c.Trace}).Validate(); err != nil && hasWorkload(c.Workloads, "trace") {
		return Config{}, fmt.Errorf("sweep: %w", err)
	}
	if len(c.Backends) == 0 {
		return Config{}, fmt.Errorf("sweep: backends must name at least one topology (%s)",
			strings.Join(workload.Backends, ", "))
	}
	for _, b := range c.Backends {
		if !contains(workload.Backends, b) {
			return Config{}, fmt.Errorf("sweep: unknown backend %q (available: %s)",
				b, strings.Join(workload.Backends, ", "))
		}
	}
	if len(c.Transports) == 0 {
		c.Transports = []string{"json"}
	}
	for _, tr := range c.Transports {
		if tr != "json" && tr != "stream" {
			return Config{}, fmt.Errorf("sweep: unknown transport %q (json, stream)", tr)
		}
	}
	if len(c.Eps) == 0 {
		return Config{}, fmt.Errorf("sweep: eps must list at least one accuracy target")
	}
	for _, e := range c.Eps {
		if !(e > 0) || e >= 1 {
			return Config{}, fmt.Errorf("sweep: eps must be in (0, 1), got %v", e)
		}
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1}
	}
	for _, w := range c.Workers {
		if w < 0 {
			return Config{}, fmt.Errorf("sweep: workers must be non-negative, got %d", w)
		}
	}
	if c.PointK <= 0 {
		c.PointK = DefaultPointK
	}
	if c.Procs < 0 {
		return Config{}, fmt.Errorf("sweep: procs must be non-negative, got %d", c.Procs)
	}

	// The estimator block: fill the gsum-bench defaults, then prove the
	// whole Spec resolves by normalizing a probe for the first cell.
	if c.Spec.Kind != "" && c.Spec.Kind != backend.KindOnePass {
		return Config{}, fmt.Errorf("sweep: spec.kind is derived per cell; leave it empty or %q, got %q",
			backend.KindOnePass, c.Spec.Kind)
	}
	c.Spec.Kind = backend.KindOnePass
	if c.Spec.G == "" {
		return Config{}, fmt.Errorf("sweep: spec.g must name a catalog function")
	}
	if c.Spec.Options.M == 0 {
		c.Spec.Options.M = 1 << 10
	}
	if c.Spec.Options.Seed == 0 {
		c.Spec.Options.Seed = c.Stream.Seed * 7
	}
	if c.Spec.Options.Lambda == 0 {
		c.Spec.Options.Lambda = 1.0 / 16
	}
	if w := c.Spec.Window.W; w > 0 {
		if c.Stream.Ticks == 0 {
			c.Stream.Ticks = workload.DefaultTicks
		}
		if w >= uint64(c.Stream.Ticks) {
			return Config{}, fmt.Errorf("sweep: window %d must be shorter than the stream's %d ticks",
				w, c.Stream.Ticks)
		}
		if contains(c.Backends, "sharded") {
			return Config{}, fmt.Errorf("sweep: the sharded backend does not support windowed runs; drop it from backends or the window from the spec")
		}
	}
	probe := c.Spec
	probe.Options.N = c.Stream.N
	probe.Options.Eps = c.Eps[0]
	if _, err := probe.Normalize(); err != nil {
		return Config{}, fmt.Errorf("sweep: spec: %w", err)
	}
	return c, nil
}

func hasWorkload(ws []string, name string) bool { return contains(ws, name) }

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Cell is one point of the sweep matrix. The cell list — and therefore
// every Index — is a pure function of the normalized Config, which is
// the contract that lets a worker process told only "-cell N" agree with
// the merging parent about what N means.
type Cell struct {
	Index     int     `json:"index"`
	Workload  string  `json:"workload"`
	Backend   string  `json:"backend"`
	Transport string  `json:"transport,omitempty"`
	Eps       float64 `json:"eps"`
	Workers   int     `json:"workers"`
}

// ID is the cell's human-readable identity, used in the report and the
// missing-cell listing.
func (c Cell) ID() string {
	b := c.Backend
	if c.Transport != "" {
		b += "/" + c.Transport
	}
	return fmt.Sprintf("%s %s eps=%g w=%d", c.Workload, b, c.Eps, c.Workers)
}

// Cells enumerates the matrix in deterministic order: workloads outermost
// (as listed), then backends, transports (daemon cells only), eps,
// workers. Call it on a normalized Config.
func (c Config) Cells() []Cell {
	var cells []Cell
	for _, w := range c.Workloads {
		for _, b := range c.Backends {
			trs := []string{""}
			if b == "daemon" {
				trs = c.Transports
			}
			for _, tr := range trs {
				for _, e := range c.Eps {
					for _, wk := range c.Workers {
						cells = append(cells, Cell{
							Index: len(cells), Workload: w, Backend: b,
							Transport: tr, Eps: e, Workers: wk,
						})
					}
				}
			}
		}
	}
	return cells
}

// Generator resolves a sweep workload name to a configured generator:
// the catalog entry with the config's skew override applied to the
// skew-parameterized scenarios, the adversarial scenario aimed at the
// sweep's own sketch seed (so the attack in the report is against the
// very CountSketch the point queries use), and the trace scenario
// pointed at the configured CSV. Call it on a normalized Config.
func (c Config) Generator(name string) (workload.Generator, error) {
	gen, ok := workload.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sweep: unknown workload %q", name)
	}
	if c.Alpha > 0 {
		switch name {
		case "zipf":
			gen = workload.Zipf{Alpha: c.Alpha}
		case "bursty":
			gen = workload.Bursty{Alpha: c.Alpha}
		case "permuted":
			gen = workload.PermutedReplay{Inner: workload.Zipf{Alpha: c.Alpha}}
		case "diurnal":
			gen = workload.Diurnal{Alpha: c.Alpha}
		}
	}
	switch name {
	case "adversarial":
		gen = workload.Adversarial{SketchSeed: c.Spec.Options.Seed}
	case "trace":
		if c.Trace != "" {
			gen = workload.TraceReplay{Path: c.Trace}
		}
	}
	return gen, nil
}

// Smoke returns the built-in `gsum sweep -smoke` matrix: a benign and an
// adversarial scenario through the in-process backends, small enough for
// a CI short-mode step.
func Smoke() Config {
	c, err := Config{
		Spec:      backend.Spec{G: "x^2"},
		Stream:    workload.Config{N: 1 << 16, Items: 512, Length: 20000, Seed: 1},
		Workloads: []string{"zipf", "adversarial"},
		Backends:  []string{"serial", "sharded"},
		Eps:       []float64{0.25},
		Workers:   []int{2},
		PointK:    8,
	}.Normalize()
	if err != nil {
		panic("sweep: built-in smoke config invalid: " + err.Error())
	}
	return c
}
