package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/heavy"
	"repro/internal/metrics"
	"repro/internal/recursive"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/wire"
	"repro/internal/xhash"
)

// levelRows is the CountSketch row count core.NewOnePass gives each
// level under sketchOptions (Delta 0.2). heavy.OnePass does not expose
// it, and the sketch and xhash rungs must match it to be the heavy
// rung's inner work.
const levelRows = 7

// ladder replays a workload's own S at batchSize through each layer's
// public ingest door, standalone: warm with +S, then time -S,+S pairs.
// Each pass is a span; a rung's self time is its time minus the rung
// below it. The estimators the read-path metrics need afterwards stay
// open on it.
type ladder struct {
	tr     *tracer
	root   int
	in     *streams
	pairs  int
	nsUpd  map[string]float64 // rung name -> median ns per update
	passes map[string][]int   // rung name -> span IDs of its timed passes
}

// rung times one door. below names the rung beneath ("" for none). A
// cold door first takes +S untimed; one that already holds S does not.
func (l *ladder) rung(name, below string, cold bool, ingest func(pass) error) error {
	runtime.GC() // the rungs before this one left garbage; do not collect it on this one's time
	phase := l.tr.begin(name, l.root)
	defer l.tr.end(phase)
	if cold {
		if err := ingest(l.in.plus); err != nil {
			return fmt.Errorf("%s: warm-up: %w", name, err)
		}
	}
	var perUpd []float64
	for pair := 0; pair < l.pairs; pair++ {
		var pairTime time.Duration
		for i, p := range []pass{l.in.minus, l.in.plus} {
			id := l.tr.begin(name+".pass", phase)
			err := ingest(p)
			l.tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			sp := l.tr.get(id)
			sp.Pass, sp.Updates = 2*pair+i+1, len(p.ups)
			if ids := l.passes[below]; below != "" {
				sp.Below = ids[2*pair+i]
			}
			l.passes[name] = append(l.passes[name], id)
			pairTime += sp.dur()
		}
		perUpd = append(perUpd, float64(pairTime.Nanoseconds())/float64(2*len(l.in.plus.ups)))
	}
	l.nsUpd[name] = median(perUpd)
	return nil
}

// batched adapts a per-batch door to a whole pass.
func batched(fn func([]stream.Update)) func(pass) error {
	return func(p pass) error {
		return forBatches(p.ups, func(b []stream.Update) error {
			fn(b)
			return nil
		})
	}
}

// hashSink keeps the xhash rung's results live so the evaluations are
// not compiled away.
var hashSink uint64

// xhashEval evaluates, four items at a time, the levelRows bucket
// polynomials (degree 1) and levelRows sign polynomials (degree 3) of
// one CountSketch level. A level hashes each distinct item of a batch
// once, so batch k evaluates batchDistinct[k] items: the hash work of
// one level, without the aggregation that finds the distinct items.
func xhashEval(coef [][6]uint64, batchDistinct []int) func(pass) error {
	return func(p pass) error {
		var sink uint64
		k := 0
		err := forBatches(p.ups, func(b []stream.Update) error {
			sink += evalLevel(coef, b[:batchDistinct[k]])
			k++
			return nil
		})
		hashSink += sink
		return err
	}
}

func evalLevel(coef [][6]uint64, b []stream.Update) (sink uint64) {
	for i := 0; i+4 <= len(b); i += 4 {
		x := [4]uint64{b[i].Item % xhash.MersennePrime61, b[i+1].Item % xhash.MersennePrime61,
			b[i+2].Item % xhash.MersennePrime61, b[i+3].Item % xhash.MersennePrime61}
		for _, c := range coef {
			bk := [4]uint64{c[1], c[1], c[1], c[1]}
			xhash.HornerStep4(&bk, &x, c[0])
			sg := [4]uint64{c[5], c[5], c[5], c[5]}
			xhash.HornerStep4(&sg, &x, c[4])
			xhash.HornerStep4(&sg, &x, c[3])
			xhash.HornerStep4(&sg, &x, c[2])
			sink += bk[0] + bk[1] + bk[2] + bk[3] + sg[0] + sg[1] + sg[2] + sg[3]
		}
	}
	return sink
}

// levelCoefficients draws one level's hash functions as
// sketch.NewCountSketch does: per row, 2 bucket then 4 sign
// coefficients.
func levelCoefficients(rng *util.SplitMix64) [][6]uint64 {
	coef := make([][6]uint64, levelRows)
	for j := range coef {
		c := xhash.NewBuckets(2, 1, rng.Fork()).AppendCoeffs(nil)
		c = xhash.NewSign(4, rng.Fork()).AppendCoeffs(c)
		copy(coef[j][:], c)
	}
	return coef
}

// traceResult is what the traced run measured beyond the ladder rungs.
type traceResult struct {
	nsUpd map[string]float64 // rung name -> median ns per update
	m     map[string]metric
	n     map[string]int // sample counts
}

func (out *traceResult) set(name string, v float64, unit string) { out.m[name] = metric{v, unit} }

// runLadder measures every rung and the read paths on the streams of
// one workload. Every estimator is built from sketchOptions, so each
// rung does the work the rung above it contains.
func runLadder(tr *tracer, root int, in *streams, pairs, reads int) (*traceResult, error) {
	// The state operations (checkpoint, scrape, marshal, unmarshal) cost
	// several estimates each, so a fifth as many calls stand behind
	// their medians.
	stateSamples := (reads + 4) / 5
	l := &ladder{tr: tr, root: root, in: in, pairs: pairs,
		nsUpd: map[string]float64{}, passes: map[string][]int{}}
	out := &traceResult{nsUpd: l.nsUpd, m: map[string]metric{}, n: map[string]int{}}
	g, err := backend.CatalogFunc(gName)
	if err != nil {
		return nil, err
	}
	// The level configuration core.NewOnePass derives from the options,
	// and its rng forks in the same order.
	opts := sketchOptions.WithDefaults()
	hcfg := heavy.OnePassConfig{G: g, Lambda: opts.Lambda, Eps: opts.Eps, Delta: opts.Delta,
		H: core.EnvelopeFor(g, opts), WidthFactor: opts.WidthFactor}
	rng := util.NewSplitMix64(opts.Seed)
	hhRng := rng.Fork()

	if err := l.rung("xhash.eval", "", true, xhashEval(levelCoefficients(rng.Fork()), in.batchDistinct)); err != nil {
		return nil, err
	}
	hv := heavy.NewOnePass(hcfg, hhRng.Fork())
	cs := sketch.NewCountSketch(levelRows, uint64(hv.SpaceBytes()/(8*levelRows)), rng.Fork())
	if err := l.rung("sketch.update", "xhash.eval", true, batched(cs.UpdateBatch)); err != nil {
		return nil, err
	}
	if err := l.rung("heavy.update", "sketch.update", true, batched(hv.UpdateBatch)); err != nil {
		return nil, err
	}
	rs := recursive.New(recursive.Config{N: opts.N, Levels: opts.Levels,
		MakeSketcher: func(int) heavy.Sketcher { return heavy.NewOnePass(hcfg, hhRng.Fork()) }}, rng.Fork())
	if err := l.rung("recursive.update", "heavy.update", true, batched(rs.UpdateBatch)); err != nil {
		return nil, err
	}
	ce := core.NewOnePass(g, sketchOptions)
	if err := l.rung("core.update", "recursive.update", true, batched(ce.UpdateBatch)); err != nil {
		return nil, err
	}
	onepass := backend.Spec{Kind: backend.KindOnePass, G: gName, Options: sketchOptions}
	t0 := time.Now()
	lib, err := openLib(onepass)
	if err != nil {
		return nil, err
	}
	out.set("backend.open_ms", ms(time.Since(t0)), "ms")
	if err := l.rung("backend.update", "core.update", true, lib.ingest); err != nil {
		return nil, err
	}
	srv, err := daemon.NewServer(onepass)
	if err != nil {
		return nil, err
	}
	apply := func(p pass) error { return forBatches(p.ups, srv.IngestBatch) }
	if err := l.rung("daemon.apply", "backend.update", true, apply); err != nil {
		return nil, err
	}

	// The wire rungs are beside the ladder, not on it: frames are built
	// (decode: ahead of the span) exactly as Pusher and streamLoop do.
	fp := onepass.Fingerprint()
	var frameBytes int
	encode := func(p pass) error {
		frameBytes = 0
		return forBatches(p.ups, func(b []stream.Update) error {
			frameBytes += 4 + len(wire.AppendIngestFrame(fp, 1, b)) // 4: WriteFrame's length prefix
			return nil
		})
	}
	if err := l.rung("wire.encode", "", true, encode); err != nil {
		return nil, err
	}
	out.set("wire.frame_bytes_per_upd", float64(frameBytes)/float64(len(in.plus.ups)), "B/upd")
	if err := l.decodeRung(fp); err != nil {
		return nil, err
	}

	d, err := openDaemon(onepass)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := l.rung("daemon.stream", "daemon.apply", true, d.ingest); err != nil {
		return nil, err
	}
	if err := out.pusherCounts(d); err != nil {
		return nil, err
	}
	o := &ops{}
	idle, _ := sampleEstimates(d, reads, o)

	// The same daemon and session once more, now with the reader beside
	// the ingest: what reads cost writes, and writes reads.
	stateDir, err := newStateDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	ckpt := filepath.Join(stateDir, daemon.CheckpointName)
	reader := tr.begin("daemon.mixed.reader", root)
	mixed := startMixedLoad(d, ckpt, o)
	err = l.rung("daemon.mixed", "daemon.stream", false, d.ingest)
	rd := mixed.finish(o)
	tr.end(reader)
	if err != nil {
		return nil, err
	}
	for _, op := range rd.ops {
		tr.add(op.name, reader, op.start, op.end)
	}
	if err := out.stateOps(d, ckpt, onepass, stateSamples); err != nil {
		return nil, err
	}

	// Library read paths, on estimators that hold exactly S.
	direct, _ := sampleEstimates(lib, reads, o)
	shardedSpec := backend.Spec{Kind: backend.KindSharded, G: gName, Options: sketchOptions, Workers: 2}
	routed, err := openLib(shardedSpec)
	if err != nil {
		return nil, err
	}
	if err := l.rung("hotpath.route", "backend.update", true, batched(routed.est.UpdateBatch)); err != nil {
		return nil, err
	}
	sharded, err := openLib(shardedSpec)
	if err != nil {
		return nil, err
	}
	if err := l.rung("hotpath.process", "", true, sharded.ingest); err != nil {
		return nil, err
	}
	merged, _ := sampleEstimates(sharded, reads, o)
	var marshal, unmarshal []float64
	for i := 0; i < stateSamples; i++ {
		t0 = time.Now()
		blob, err := ce.MarshalBinary()
		marshal = append(marshal, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		into := core.NewOnePass(g, sketchOptions)
		t0 = time.Now()
		err = into.UnmarshalBinary(blob)
		unmarshal = append(unmarshal, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
	}
	if len(o.failures) > 0 {
		return nil, fmt.Errorf("traced read paths: %v", o.failures)
	}

	out.set("backend.estimate_ms", median(direct), "ms")
	out.set("hotpath.merge_ms", median(merged)-median(direct), "ms")
	out.set("daemon.estimate_http_self_ms", median(idle)-median(direct), "ms")
	out.set("daemon.estimate_wait_ms", median(rd.estimateMs)-median(idle), "ms")
	out.set("daemon.estimate_p99_ms", quantile(rd.estimateMs, 0.99), "ms")
	out.n["daemon.estimate_p99_ms"] = len(rd.estimateMs)
	out.set("daemon.reader_late_ms", quantile(rd.lateMs, 0.9), "ms")
	out.n["daemon.reader_late_ms"] = len(rd.lateMs)
	out.set("core.marshal_ms", median(marshal), "ms")
	out.set("core.unmarshal_merge_ms", median(unmarshal), "ms")
	return out, nil
}

// stateOps times what the reader and the Checkpointer do, by itself on
// the idle daemon (the mixed rung is too short for a median of the
// scheduled ones), and one restore of the last checkpoint.
func (out *traceResult) stateOps(d *daemonSubject, ckpt string, spec backend.Spec, n int) error {
	var checkpoint, scrape []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := d.srv.WriteCheckpoint(ckpt); err != nil {
			return err
		}
		checkpoint = append(checkpoint, ms(time.Since(t0)))
		t0 = time.Now()
		body, err := d.scrape()
		if err != nil {
			return err
		}
		scrape = append(scrape, ms(time.Since(t0)))
		out.set("metrics.scrape_bytes", float64(len(body)), "B")
	}
	out.set("daemon.checkpoint_ms", median(checkpoint), "ms")
	out.set("daemon.scrape_ms", median(scrape), "ms")
	fi, err := os.Stat(ckpt)
	if err != nil {
		return err
	}
	out.set("daemon.checkpoint_bytes", float64(fi.Size()), "B")
	fresh, err := daemon.NewServer(spec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := fresh.RestoreCheckpoint(ckpt); err != nil {
		return err
	}
	out.set("daemon.restore_ms", ms(time.Since(t0)), "ms")
	return nil
}

// decodeRung times UnmarshalIngestFrame alone: each pass's frames are
// encoded before its span opens.
func (l *ladder) decodeRung(fp uint64) error {
	frames := map[*stream.Stream][][]byte{}
	for _, p := range []pass{l.in.plus, l.in.minus} {
		var fs [][]byte
		_ = forBatches(p.ups, func(b []stream.Update) error {
			fs = append(fs, wire.AppendIngestFrame(fp, 1, b))
			return nil
		})
		frames[p.st] = fs
	}
	return l.rung("wire.decode", "", true, func(p pass) error {
		for _, f := range frames[p.st] {
			if _, _, err := wire.UnmarshalIngestFrame(f, fp); err != nil {
				return err
			}
		}
		return nil
	})
}

// pusherCounts records the counts of the stream rung's session. They
// depend only on the stream length and the pass count, so they repeat
// exactly.
func (out *traceResult) pusherCounts(d *daemonSubject) error {
	st := d.pusher.Stats()
	out.set("pusher.frames", float64(st.Frames), "count")
	out.set("pusher.flush_size", float64(st.FlushSize), "count")
	out.set("pusher.flush_age", float64(st.FlushAge), "count")
	out.set("pusher.flush_request", float64(st.FlushRequest), "count")
	acked, err := settledValue(d.srv, "gsumd_stream_acked_frames_total", float64(st.Frames))
	if err != nil {
		return err
	}
	out.set("daemon.acked_frames", acked, "count")
	batches, err := registryValue(d.srv, "gsumd_ingest_batches_total", metrics.Label{Key: "transport", Value: "stream"})
	if err != nil {
		return err
	}
	out.set("daemon.ingest_batches", batches, "count")
	return nil
}
