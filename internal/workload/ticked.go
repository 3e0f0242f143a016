package workload

import (
	"repro/internal/stream"
	"repro/internal/util"
)

// The tick dimension. A windowed backend (internal/window) answers over
// the last W ticks, so windowed benchmarking needs scenario streams
// with a time axis. A TickedStream pairs a scenario stream with a
// non-decreasing per-update tick; determinism is the same as for plain
// streams — ticks are a pure function of the Config — so ticked
// workloads keep the serial == daemon equality meaningful
// in windowed mode too.

// DefaultTicks is the tick span used when Config.Ticks is 0.
const DefaultTicks = 64

// TickedStream is a scenario stream with a time dimension: update i
// happened at tick Ticks[i]. Ticks are non-decreasing.
type TickedStream struct {
	Stream *stream.Stream
	Ticks  []uint64
}

// LastTick returns the tick of the final update (0 for empty streams).
func (ts *TickedStream) LastTick() uint64 {
	if len(ts.Ticks) == 0 {
		return 0
	}
	return ts.Ticks[len(ts.Ticks)-1]
}

// EachRun calls fn for every maximal run of equal-tick updates within
// [lo, hi), passing the run's index bounds and its tick, and stops at
// the first error. It is the shared grouping loop of every tick-batched
// ingestion path (bench backends, daemon pushers).
func (ts *TickedStream) EachRun(lo, hi int, fn func(lo, hi int, tick uint64) error) error {
	for lo < hi {
		run := lo + 1
		for run < hi && ts.Ticks[run] == ts.Ticks[lo] {
			run++
		}
		if err := fn(lo, run, ts.Ticks[lo]); err != nil {
			return err
		}
		lo = run
	}
	return nil
}

// WindowVector returns the frequency vector of the updates in the
// trailing window (LastTick−w, LastTick] — the ground truth a windowed
// estimator is scored against.
func (ts *TickedStream) WindowVector(w uint64) stream.Vector {
	last := ts.LastTick()
	v := make(stream.Vector, 64)
	for i, u := range ts.Stream.Updates() {
		if ts.Ticks[i]+w > last { // tick > last-w, written overflow-safe
			nv := v[u.Item] + u.Delta
			if nv == 0 {
				delete(v, u.Item)
			} else {
				v[u.Item] = nv
			}
		}
	}
	return v
}

// TickedGenerator is a Generator that can also stamp its stream with
// ticks. Generators with intrinsic arrival structure (bursty runs,
// permuted replays) implement it with scenario-specific time axes; any
// other generator can be lifted with Ticked, which slices the stream
// into equal-length tick segments.
type TickedGenerator interface {
	Generator
	// GenerateTicked builds the ticked stream for cfg. The plain stream
	// (updates, order, and frequency vector) need not equal Generate's
	// for scenarios whose time axis changes arrival order (permuted), but
	// it must remain a pure function of cfg.
	GenerateTicked(cfg Config) *TickedStream
}

// Ticked builds a ticked stream for any generator: g's own
// GenerateTicked when implemented, otherwise the generated stream
// sliced into cfg.Ticks equal segments.
func Ticked(g Generator, cfg Config) *TickedStream {
	if tg, ok := g.(TickedGenerator); ok {
		return tg.GenerateTicked(cfg)
	}
	return evenTicked(g.Generate(cfg), cfg)
}

// ticksOrDefault resolves the configured tick span.
func ticksOrDefault(cfg Config) uint64 {
	if cfg.Ticks <= 0 {
		return DefaultTicks
	}
	return uint64(cfg.Ticks)
}

// evenTicked stamps a stream with evenly sliced ticks: update i of n
// gets tick i·T/n, so the stream spans ticks [0, T).
func evenTicked(s *stream.Stream, cfg Config) *TickedStream {
	t := ticksOrDefault(cfg)
	n := s.Len()
	ticks := make([]uint64, n)
	for i := range ticks {
		ticks[i] = uint64(i) * t / uint64(n)
	}
	return &TickedStream{Stream: s, Ticks: ticks}
}

// GenerateTicked implements TickedGenerator: the zipf stream has no
// intrinsic arrival structure, so time is an even slicing.
func (z Zipf) GenerateTicked(cfg Config) *TickedStream {
	return evenTicked(z.Generate(cfg), cfg)
}

// GenerateTicked implements TickedGenerator (even slicing).
func (u Uniform) GenerateTicked(cfg Config) *TickedStream {
	return evenTicked(u.Generate(cfg), cfg)
}

// GenerateTicked implements TickedGenerator (even slicing).
func (n Needle) GenerateTicked(cfg Config) *TickedStream {
	return evenTicked(n.Generate(cfg), cfg)
}

// GenerateTicked implements TickedGenerator with a burst-aligned time
// axis: every geometric run falls entirely inside one tick (run r of R
// gets tick r·T/R), modeling devices that flush a whole burst at once.
// No burst ever straddles a window boundary, which makes bursty the
// clean worst case for windowed heavy-hitter churn.
func (b Bursty) GenerateTicked(cfg Config) *TickedStream {
	s, runStarts := b.generate(cfg)
	t := ticksOrDefault(cfg)
	ticks := make([]uint64, s.Len())
	runs := uint64(len(runStarts))
	for r, lo := range runStarts {
		hi := s.Len()
		if r+1 < len(runStarts) {
			hi = runStarts[r+1]
		}
		tick := uint64(r) * t / runs
		for i := lo; i < hi; i++ {
			ticks[i] = tick
		}
	}
	return &TickedStream{Stream: s, Ticks: ticks}
}

// GenerateTicked implements TickedGenerator: the inner scenario's
// ticked stream replayed with arrival order destroyed WITHIN each tick
// but never across ticks — every per-tick frequency vector is identical
// to the inner stream's, so a windowed estimate over the permuted
// replay must equal the windowed estimate over the inner stream (the
// windowed form of the order-insensitivity pin).
func (p PermutedReplay) GenerateTicked(cfg Config) *TickedStream {
	base := Ticked(p.inner(), cfg)
	src := base.Stream.Updates()
	shuffled := make([]stream.Update, len(src))
	copy(shuffled, src)
	// A distinct tag keeps the within-tick permutation independent of
	// both the inner generator's draws and the whole-stream permutation.
	perm := util.NewSplitMix64(cfg.Seed ^ 0xd1b54a32d192ed03).Fork()
	lo := 0
	for lo < len(shuffled) {
		hi := lo
		for hi < len(shuffled) && base.Ticks[hi] == base.Ticks[lo] {
			hi++
		}
		for i := hi - 1; i > lo; i-- {
			j := lo + int(perm.Uint64n(uint64(i-lo+1)))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		lo = hi
	}
	out := stream.New(base.Stream.N())
	for _, u := range shuffled {
		out.Add(u.Item, u.Delta)
	}
	return &TickedStream{Stream: out, Ticks: base.Ticks}
}
