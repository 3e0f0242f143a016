// Package universal is the public API of this reproduction of
//
//	Braverman, Chestnut, Woodruff, Yang.
//	"Streaming Space Complexity of Nearly All Functions of One Variable
//	on Frequency Vectors." PODS 2016 (arXiv:1601.07473).
//
// It answers two questions about a function g : Z≥0 → R≥0 with g(0)=0,
// g(1)=1, g(x)>0:
//
//  1. Can Σ_i g(|v_i|) over a turnstile stream's frequency vector be
//     (1±ε)-approximated in sub-polynomial space? Classify implements the
//     paper's zero-one laws: for "normal" g, one pass works iff g is
//     slow-jumping, slow-dropping, and predictable (Theorem 2); two passes
//     work iff g is slow-jumping and slow-dropping (Theorem 3).
//
//  2. How? Open builds them: KindOnePass and KindTwoPass implement the
//     paper's Algorithms 2 and 1 inside the Braverman-Ostrovsky recursive
//     sketch (Theorem 13). The one-pass sketch is also function
//     independent: sized for an Options.Envelope, its EstimateFor answers
//     post-hoc g-SUM queries for whole function families (the §1.1.1 MLE
//     application).
//
// Everything is deterministic given a seed, uses only the standard
// library, and is exercised end to end by the E1-E15 experiment suite
// (internal/experiments, cmd/gsum) documented in EXPERIMENTS.md.
//
// Ingestion is batched and shardable: every estimator has an amortized
// UpdateBatch path, and Kind "sharded" routes a stream by item hash
// across Spec.Workers persistent one-pass shards that merge by
// linearity, so worker count never changes the counters.
//
// Every Estimator implements encoding.BinaryMarshaler and
// encoding.BinaryUnmarshaler with merge semantics: UnmarshalBinary ADDS
// a serialized shard's counters into the receiver, and a fingerprint in
// the wire header (internal/wire) rejects payloads from a sketch built
// with a different seed or configuration. This is what cmd/gsumd builds
// on: worker daemons ship snapshots, a coordinator folds them, and the
// merged estimate equals the single-process estimate exactly. See the
// README's wire-format section.
//
// # Quick start
//
// Every estimator is described by a Spec and built by Open — one
// configuration object, one constructor, one streaming contract:
//
//	spec := universal.Spec{
//		Kind:    universal.KindOnePass,       // or twopass, sharded, window, ...
//		G:       "x^2 lg(1+x)",               // catalog function name
//		Options: universal.Options{N: 1 << 12, M: 1 << 10},
//	}
//	est, err := universal.Open(spec)         // same Spec => same sketch, any machine
//	s := universal.NewStream(1 << 12)        // turnstile stream, domain [0, 4096)
//	s.Add(7, +3)
//	s.Add(9, -2)
//	universal.Process(est, s)
//	fmt.Println(est.Estimate())
//
// See examples/ for runnable programs and the README for the
// old-constructor → Spec migration table.
package universal

import (
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/stream"
)

// Spec is the typed, serializable description of any estimator in this
// repository: a Kind, a catalog function name, Options, and the
// kind-specific extras. Open(Spec) is the one constructor. Spec has a
// canonical JSON encoding (CanonicalJSON) and a
// configuration fingerprint (Fingerprint) that distributed deployments
// exchange to prove they built identical sketches BEFORE shipping
// snapshots (gsumd's /v1/config handshake answers 409 on drift).
type Spec = backend.Spec

// Kind names a registered estimator family; see the Kind* constants.
type Kind = backend.Kind

// The registered estimator kinds. Kinds() reports the full set at run
// time; each value documents its family in internal/backend.
const (
	KindOnePass     = backend.KindOnePass
	KindTwoPass     = backend.KindTwoPass
	KindSharded     = backend.KindSharded
	KindWindow      = backend.KindWindow
	KindCountSketch = backend.KindCountSketch
	KindHeavy       = backend.KindHeavy
	KindExact       = backend.KindExact
)

// Estimator is the unified contract every kind satisfies: streaming
// ingestion (Update/UpdateBatch), an Estimate, and the merge-semantics
// wire format (MarshalBinary/UnmarshalBinary). Richer behavior is
// reached through the capability interfaces (Windowed, TwoPass, ...).
type Estimator = backend.Estimator

// Windowed is the capability of kinds with a tick clock (KindWindow):
// Advance moves time, Estimate covers the trailing window.
type Windowed = backend.Windowed

// TwoPassSink is the capability of kinds that replay the stream
// (KindTwoPass): feed every update, FinishPass1, feed every update
// again, then Estimate.
type TwoPassSink = backend.TwoPass

// FuncQuerier is the capability of kinds answering post-hoc g-SUM
// queries for arbitrary catalog functions from one state (KindOnePass,
// KindSharded, KindWindow), inside the Options.Envelope they were sized
// for.
type FuncQuerier = backend.FuncQuerier

// Open validates spec and constructs the estimator through the backend
// registry. It is a pure function of the Spec: two Open calls with
// equal Specs — in one process or on two machines — return estimators
// with identical hash functions and wire fingerprints, so their
// snapshots merge exactly.
func Open(spec Spec) (Estimator, error) { return backend.Open(spec) }

// Kinds returns the registered estimator kind names, sorted.
func Kinds() []string { return backend.Kinds() }

// ParseSpec decodes a Spec from its JSON encoding (canonical or not —
// the shape gsumd serves at /v1/config) and normalizes it. It is how
// file-based configuration enters the system: `gsumd -config` and
// `gsum bench -config` both resolve their Spec through this one door.
func ParseSpec(data []byte) (Spec, error) { return backend.ParseSpec(data) }

// Describe returns the one-line registry description of a kind ("" if
// unknown). CLI surfaces print this instead of hand-maintained lists.
func Describe(k Kind) string { return backend.Describe(k) }

// Process drives a whole in-memory stream through est using its richest
// capability: KindSharded routes it by item hash to concurrent per-core shards,
// KindTwoPass replays it for both passes, everything else streams it
// through the batched path.
func Process(est Estimator, s *Stream) error { return backend.Process(est, s) }

// Merge folds src into dst. Both must come from Open of equal Specs: a
// src whose fingerprint differs from dst's is refused and dst is left as
// it was, whether the kind merges in memory or through the wire format.
func Merge(dst, src Estimator) error { return backend.Merge(dst, src) }

// Func is a function g in the paper's class G (g(0)=0, g(1)=1, g(x)>0 for
// x>0). Implement it directly or use the catalog constructors below.
type Func = gfunc.Func

// Stream is an in-memory turnstile stream over a domain [0, N).
type Stream = stream.Stream

// Update is a single turnstile update (item, δ).
type Update = stream.Update

// Vector is a sparse frequency vector.
type Vector = stream.Vector

// Options configures the estimators; see core.Options for field docs.
type Options = core.Options

// Classification is the zero-one-law verdict bundle for one function.
type Classification = gfunc.Classification

// CheckConfig tunes the property witness searchers.
type CheckConfig = gfunc.CheckConfig

// Tractability is a zero-one-law verdict (Tractable, Intractable, or
// OpenNearlyPeriodic).
type Tractability = gfunc.Tractability

// Tractability verdict values.
const (
	Tractable          = gfunc.Tractable
	Intractable        = gfunc.Intractable
	OpenNearlyPeriodic = gfunc.OpenNearlyPeriodic
)

// NewStream returns an empty turnstile stream over the domain [0, n).
func NewStream(n uint64) *Stream { return stream.New(n) }

// New wraps a closure satisfying the class-G constraints as a Func.
func New(name string, eval func(uint64) float64) Func { return gfunc.New(name, eval) }

// Normalize rescales an arbitrary positive function into class G.
func Normalize(name string, f func(uint64) float64) Func { return gfunc.Normalize(name, f) }

// Catalog constructors for the paper's worked examples.
var (
	// Power returns g(x) = x^p (tractable iff 0 <= p <= 2).
	Power = gfunc.Power
	// F2 returns g(x) = x².
	F2 = gfunc.F2Func
	// F1 returns g(x) = x.
	F1 = gfunc.F1Func
	// L0 returns the distinct-elements indicator 1(x>0).
	L0 = gfunc.L0
	// Reciprocal returns 1/x (not slow-dropping; intractable).
	Reciprocal = gfunc.Reciprocal
	// X2Log returns x² lg(1+x) (1-pass tractable).
	X2Log = gfunc.X2Log
	// SinX2 returns (2+sin x)x²/3 (2-pass tractable only).
	SinX2 = gfunc.SinX2
	// SinSqrtX2 returns (2+sin √x)x² normalized (2-pass tractable only).
	SinSqrtX2 = gfunc.SinSqrtX2
	// SinLogX2 returns (2+sin log(1+x))x² normalized (1-pass tractable).
	SinLogX2 = gfunc.SinLogX2
	// ExpSqrtLog returns e^√log(1+x) normalized (1-pass tractable).
	ExpSqrtLog = gfunc.ExpSqrtLog
	// Gnp returns the nearly periodic g_np(x) = 2^{-ι(x)} of Appendix D.
	Gnp = gfunc.Gnp
	// LEta applies the L_η(g) = g·log^η(1+x) transform of Definition 55.
	LEta = gfunc.LEta
)

// DefaultCheckConfig returns the witness-search configuration used by the
// experiments (range 2^20, γ = 1/2, ε(x) = 1/ln(2+x)).
func DefaultCheckConfig() CheckConfig { return gfunc.DefaultCheckConfig() }

// Classify runs the zero-one-law property checkers (Definitions 6-9) on g
// and returns the Theorem 2 / Theorem 3 verdicts.
func Classify(g Func, cfg CheckConfig) Classification { return gfunc.Classify(g, cfg) }
