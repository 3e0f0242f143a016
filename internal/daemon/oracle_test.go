package daemon

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/sketch"
	"repro/internal/sketch/sketchtest"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/window"
)

// The op-sequence oracle. Every sketch here is a linear map of the
// turnstile frequency vector, so whatever path updates take — one at a
// time, in batches, over parts merged in memory or over the wire, through
// a snapshot, a checkpoint, a chunk-parallel Process, a daemon's JSON
// endpoint or its binary stream — the counters must be those of one serial
// replay of the update multiset. Wrapping int64 addition is linear too, so
// that holds past MaxInt64. TestOracle draws seeded op sequences, runs each
// against every kind through every door, and holds the result to that
// replay:
//
//   - the counters equal the replay's bit for bit, read by reflection;
//   - while the distinct items stay within every tracker's capacity
//     (2H/λ + 1; a narrow sequence draws from oracleItems of them), the
//     snapshot bytes, the estimate's bits and the kind's other answers
//     (point queries, a post-hoc function, the cover's items, the window's
//     clock) equal the replay's too;
//   - a refused payload changes nothing (a daemon answers it 409), and no
//     door panics.
//
// A failing sequence is shrunk and printed as a Go literal; pasted into
// oracleRegressions it replays first on every run.

// opKind is one letter of the op alphabet.
type opKind uint8

const (
	opUpdate     opKind = iota // one update through the door's single-update path
	opBatch                    // a ragged batch through the door's batch path
	opMergeMem                 // a part takes the updates and is merged without bytes (backend.Merge; a daemon pulls a part daemon)
	opMergeWire                // the same, the part shipped as snapshot bytes (UnmarshalBinary; POST /v1/merge)
	opFresh                    // marshal, unmarshal into a fresh receiver, which becomes the subject
	opLive                     // marshal, unmarshal into a receiver holding the updates, which becomes the subject
	opRefuse                   // a payload to refuse: another Spec's snapshot, or the subject's own cut short or with a bad last row
	opAdvance                  // move the window clock Len ticks (a clockless daemon refuses it)
	opCheckpoint               // checkpoint, ingest the updates, restore: the updates are gone
	opProcess                  // backend.Process of a Len-update stream (a daemon ingests it as a bulk load)
	numOpKinds
)

var opNames = [numOpKinds]string{"opUpdate", "opBatch", "opMergeMem", "opMergeWire", "opFresh", "opLive",
	"opRefuse", "opAdvance", "opCheckpoint", "opProcess"}

func (k opKind) String() string   { return opNames[k] }
func (k opKind) GoString() string { return opNames[k] }

// op is one step. Seed and Len draw its updates (Len is an opAdvance's
// tick count); Seed also picks an opRefuse's payload.
type op struct {
	Kind opKind
	Seed uint64
	Len  int
}

// sequence is one case: a kind, the Spec's Workers (Process's chunk count
// for sharded and twopass), whether items come from the whole domain (past
// tracker capacity: counters only), whether deltas include MinInt64,
// MaxInt64 and sums that wrap, and the ops.
type sequence struct {
	Kind     backend.Kind
	Workers  int
	Wide     bool
	Overflow bool
	Ops      []op
}

// oracleRegressions holds shrunk sequences a failure printed.
var oracleRegressions []sequence

const oracleItems = 48

// oracleItem is the k-th of a narrow sequence's items.
func oracleItem(k uint64) uint64 { return k * 2654435761 % testOptions(0).N }

// oracleProbes are the items a PointQuerier is asked for.
var oracleProbes = []uint64{oracleItem(0), oracleItem(1), oracleItem(2)}

// oraclePostHoc is the function a FuncQuerier is asked for besides its
// Spec's: x^1, whose envelope is under x^2's.
const oraclePostHoc = "x^1"

var (
	oracleKinds = []backend.Kind{backend.KindOnePass, backend.KindTwoPass, backend.KindSharded, backend.KindWindow,
		backend.KindCountSketch, backend.KindHeavy, backend.KindExact}
	// processLens straddle stream.BatchSize's multiples: Process is serial
	// under two batches and cuts min(Workers, len/BatchSize) chunks above.
	processLens = []int{0, 1, stream.BatchSize - 1, 2*stream.BatchSize - 1, 2 * stream.BatchSize,
		2*stream.BatchSize + 1, 3*stream.BatchSize + 7, 8*stream.BatchSize + 1}
	oracleWorkers = []int{1, 2, 3, 8}
)

// oracleEnvelope is x^2's envelope at testOptions, measured once: a Spec
// that pins it opens without measuring it again.
var oracleEnvelope = sync.OnceValue(func() float64 {
	g, err := backend.CatalogFunc("x^2")
	if err != nil {
		panic(err)
	}
	return core.EnvelopeFor(g, testOptions(0))
})

func oracleSpec(kind backend.Kind, workers int) backend.Spec {
	s := backend.Spec{Kind: kind, G: "x^2", Options: testOptions(7), Workers: workers}
	s.Options.Envelope = oracleEnvelope()
	switch kind {
	case backend.KindWindow:
		s.Window = window.Config{W: 4, K: 2}
	case backend.KindCountSketch:
		s.Rows, s.Buckets, s.TopK = 5, 1<<10, 2*oracleItems
	}
	return s
}

func drawSequence(kind backend.Kind, seed uint64) sequence {
	rng := util.NewSplitMix64(seed)
	seq := sequence{Kind: kind, Workers: oracleWorkers[rng.Uint64n(4)], Wide: rng.Uint64n(4) == 0, Overflow: rng.Uint64n(3) == 0}
	for i, n := 0, 3+int(rng.Uint64n(10)); i < n; i++ {
		o := op{Kind: opKind(rng.Uint64n(uint64(numOpKinds))), Seed: rng.Next()}
		switch o.Kind {
		case opUpdate:
			o.Len = 1
		case opAdvance:
			o.Len = 1 + int(rng.Uint64n(3))
		case opProcess:
			o.Len = processLens[rng.Uint64n(uint64(len(processLens)))]
		default:
			o.Len = int(rng.Uint64n(300))
		}
		seq.Ops = append(seq.Ops, o)
	}
	return seq
}

// updates draws an op's updates: items from oracleItems fixed ones, or
// from the whole domain on a wide sequence; deltas in [-4, 4], and on an
// overflow sequence one in 32 is MinInt64, MaxInt64 or MaxInt64 - 1.
func (seq sequence) updates(o op) []stream.Update {
	if o.Kind == opAdvance {
		return nil
	}
	rng := util.NewSplitMix64(o.Seed)
	n := testOptions(0).N
	out := make([]stream.Update, o.Len)
	for i := range out {
		item := rng.Uint64n(n)
		if !seq.Wide {
			item = oracleItem(rng.Uint64n(oracleItems))
		}
		delta := rng.Int63n(9) - 4
		if seq.Overflow && rng.Uint64n(32) == 0 {
			delta = []int64{math.MinInt64, math.MaxInt64, math.MaxInt64 - 1}[rng.Uint64n(3)]
		}
		out[i] = stream.Update{Item: item, Delta: delta}
	}
	return out
}

func (seq sequence) literal() string {
	return strings.ReplaceAll(fmt.Sprintf("%#v", seq), "daemon.", "")
}

// state is what a door shows at the end of a sequence (no snapshot for
// twopass, whose bytes secondPass checks after each pass).
type state struct {
	counters [][]int64
	snapshot []byte
	estimate float64
	answers  answers
}

// answers is what a kind answers beside its estimate, by capability; a
// field stays zero where the kind lacks it.
type answers struct {
	points []float64  // PointQuerier: oracleProbes' point queries, as /v1/estimate serves them
	post   *float64   // FuncQuerier: the estimate for oraclePostHoc
	cover  []uint64   // CoverReporter: the cover's items, in order
	clock  *[3]uint64 // Windowed: the tick, the window length, the stale ticks
}

// answersOf asks a library estimator.
func answersOf(est backend.Estimator) (a answers) {
	if pq, ok := est.(backend.PointQuerier); ok {
		for _, item := range oracleProbes {
			a.points = append(a.points, float64(pq.EstimateItem(item)))
		}
	}
	if fq, ok := est.(backend.FuncQuerier); ok {
		g, err := backend.CatalogFunc(oraclePostHoc)
		if err != nil {
			panic(err)
		}
		a.post = new(float64)
		*a.post = fq.EstimateFor(g)
	}
	if cr, ok := est.(backend.CoverReporter); ok {
		for _, e := range cr.Cover() {
			a.cover = append(a.cover, e.Item)
		}
	}
	if win, ok := est.(backend.Windowed); ok {
		a.clock = &[3]uint64{win.Now(), win.Config().W, win.Stale()}
	}
	return a
}

// door drives one sequence's subject; an opener opens one per sequence.
type door interface {
	do(o op, us []stream.Update) error
	state() (state, error)
	close()
}

type opener func(spec backend.Spec) (door, error)

func TestOracle(t *testing.T) {
	n := 100
	if testing.Short() || raceEnabled {
		n = 20
	}
	doors := []struct {
		name string
		open func(t *testing.T) opener
	}{
		{"library", func(t *testing.T) opener {
			return func(spec backend.Spec) (door, error) {
				est, err := backend.Open(spec)
				return &libraryDoor{t: t, spec: spec, est: est}, err
			}
		}},
		{"loopback", func(t *testing.T) opener { return daemonOpener(t, false) }},
		{"stream", func(t *testing.T) opener { return daemonOpener(t, true) }},
	}
	for k, kind := range oracleKinds {
		seqs := slices.Clone(oracleRegressions)
		var drawn [numOpKinds]int
		for i := 0; i < n; i++ {
			seq := drawSequence(kind, uint64(k)<<32|uint64(i))
			for _, o := range seq.Ops {
				drawn[o.Kind]++
			}
			seqs = append(seqs, seq)
		}
		var line strings.Builder
		for o, c := range drawn {
			if c == 0 {
				t.Errorf("%s: %v never drawn in %d sequences", kind, opKind(o), n)
			}
			fmt.Fprintf(&line, " %v=%d", opKind(o), c)
		}
		t.Logf("%-11s %d sequences, ops drawn:%s", kind, n, line.String())
		for _, d := range doors {
			kind, d := kind, d
			t.Run(string(kind)+"/"+d.name, func(t *testing.T) {
				t.Parallel()
				if kind == backend.KindTwoPass && d.name != "library" {
					// Both daemon doors stand on NewServer, which refuses the
					// kind: its passes need a replay the HTTP surface cannot drive.
					if _, err := StartLoopback(oracleSpec(kind, 1)); err == nil || !strings.Contains(err.Error(), "replay") {
						t.Fatalf("a twopass daemon: %v, want NewServer's refusal", err)
					}
					return
				}
				open := d.open(t)
				run := func(seq sequence) error { return runSequence(seq, open) }
				for _, seq := range seqs {
					if seq.Kind != kind {
						continue
					}
					if err := run(seq); err != nil {
						small := shrink(seq, run)
						t.Fatalf("%v\nshrunk to: %v\n%s", err, run(small), small.literal())
					}
				}
			})
		}
	}
}

// shrink drops ops, then halves lengths, while the sequence still fails.
func shrink(seq sequence, run func(sequence) error) sequence {
	for i := len(seq.Ops) - 1; i >= 0; i-- {
		c := seq
		c.Ops = slices.Delete(slices.Clone(seq.Ops), i, i+1)
		if run(c) != nil {
			seq = c
		}
	}
	for i := range seq.Ops {
		for seq.Ops[i].Len > 1 {
			c := seq
			c.Ops = slices.Clone(seq.Ops)
			c.Ops[i].Len /= 2
			if run(c) == nil {
				break
			}
			seq = c
		}
	}
	return seq
}

// runSequence runs seq through one door and against the serial replay: a
// library estimator fed one Update at a time, advanced alongside.
func runSequence(seq sequence, open opener) (err error) {
	spec := oracleSpec(seq.Kind, seq.Workers)
	replay, err := backend.Open(spec)
	if err != nil {
		return err
	}
	d, err := open(spec)
	if err != nil {
		return err
	}
	defer d.close()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	var kept []stream.Update // the multiset, in op order
	for i, o := range seq.Ops {
		us := seq.updates(o)
		if err := d.do(o, us); err != nil {
			return fmt.Errorf("op %d %v: %w", i, o.Kind, err)
		}
		switch o.Kind {
		case opAdvance:
			if win, ok := replay.(backend.Windowed); ok {
				win.Advance(win.Now() + uint64(o.Len))
			}
		case opFresh, opRefuse, opCheckpoint:
		case opProcess:
			// A serial Process: the chunked one, and a daemon's bulk load,
			// are held to it (every other op's updates replay one by one).
			stream.Batches(us, replay.UpdateBatch)
			kept = append(kept, us...)
		default:
			for _, u := range us {
				replay.Update(u.Item, u.Delta)
			}
			kept = append(kept, us...)
		}
	}
	if _, ok := replay.(backend.TwoPass); ok {
		if err := secondPass(seq, spec, d.(*libraryDoor).est, replay, kept); err != nil {
			return err
		}
	}
	got, err := d.state()
	if err != nil {
		return fmt.Errorf("reading the subject: %w", err)
	}
	return compare(seq, got, replay)
}

// secondPass finishes a twopass subject and replay, and holds
// backend.Process (RunParallel at the Spec's Workers) of the whole
// multiset to the replay. While the trackers hold every item, snapshot
// bytes are compared after each pass: a candidate set is written
// ascending by id, so its bytes are the set's, whatever history built it.
func secondPass(seq sequence, spec backend.Spec, subject, replay backend.Estimator, kept []stream.Update) error {
	if !seq.Wide && !bytes.Equal(marshal(subject), marshal(replay)) {
		return fmt.Errorf("first-pass snapshot differs from the serial replay's")
	}
	for _, e := range []backend.Estimator{subject, replay} {
		e.(backend.TwoPass).FinishPass1()
	}
	stream.Batches(kept, subject.UpdateBatch)
	for _, u := range kept {
		replay.Update(u.Item, u.Delta)
	}
	if !seq.Wide && !bytes.Equal(marshal(subject), marshal(replay)) {
		return fmt.Errorf("second-pass snapshot differs from the serial replay's")
	}
	p, err := backend.Open(spec)
	if err != nil {
		return err
	}
	if err := backend.Process(p, streamOf(kept)); err != nil {
		return err
	}
	if err := compare(seq, state{counters: counters(p), snapshot: marshal(p), estimate: p.Estimate(), answers: answersOf(p)}, replay); err != nil {
		return fmt.Errorf("twopass Process at %d workers: %w", seq.Workers, err)
	}
	return nil
}

func compare(seq sequence, got state, replay backend.Estimator) error {
	want := counters(replay)
	if _, twoPass := replay.(backend.TwoPass); twoPass && seq.Wide {
		// Past capacity the tabulated candidates are the tracker's: only
		// the first pass's rows, the first half, are linear.
		got.counters, want = got.counters[:len(got.counters)/2], want[:len(want)/2]
	}
	if !slices.EqualFunc(got.counters, want, slices.Equal[[]int64]) {
		return fmt.Errorf("counters differ from the serial replay")
	}
	if math.IsNaN(got.estimate) || math.IsInf(got.estimate, 0) {
		return fmt.Errorf("estimate %v is not finite", got.estimate)
	}
	if seq.Wide {
		return nil
	}
	if got.snapshot != nil && !bytes.Equal(got.snapshot, marshal(replay)) {
		return fmt.Errorf("snapshot differs from the serial replay's (%d vs %d bytes)", len(got.snapshot), len(marshal(replay)))
	}
	if want := replay.Estimate(); math.Float64bits(got.estimate) != math.Float64bits(want) {
		return fmt.Errorf("estimate %v, serial replay %v", got.estimate, want)
	}
	if want := answersOf(replay); !reflect.DeepEqual(got.answers, want) {
		return fmt.Errorf("answers %+v, serial replay %+v", got.answers, want)
	}
	return nil
}

var (
	countSketchType = reflect.TypeOf(sketch.CountSketch{})
	freqMapType     = reflect.TypeOf(map[uint64]int64(nil))
)

// counters returns every counter est holds, found by reflection: each
// CountSketch's counter matrix (its FoldCounters digest), then each item → int64 map (the exact
// kind's frequency vector, a two-pass level's tabulation) as item, count
// pairs sorted by item, each in the order a depth-first walk of est meets
// them. A two-pass level holds one of each.
func counters(est any) [][]int64 {
	var rows, maps [][]int64
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				walk(v.Elem())
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Map:
			if v.Type() == freqMapType {
				items := make([]uint64, 0, v.Len())
				for it := v.MapRange(); it.Next(); {
					items = append(items, it.Key().Uint())
				}
				slices.Sort(items)
				var kv []int64
				for _, it := range items {
					kv = append(kv, int64(it), v.MapIndex(reflect.ValueOf(it)).Int())
				}
				maps = append(maps, kv)
			}
		case reflect.Slice, reflect.Array:
			if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Interface || k == reflect.Struct {
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			}
		case reflect.Struct:
			if v.Type() != countSketchType {
				for i := 0; i < v.NumField(); i++ {
					walk(v.Field(i))
				}
				return
			}
			// A sketch holds its counters as a matrix or, while sparse, as
			// a table that replays to it: read them through the sketch's
			// own fold, which digests the matrix either way.
			cs := reflect.NewAt(countSketchType, v.Addr().UnsafePointer()).Interface().(*sketch.CountSketch)
			rows = append(rows, []int64{int64(cs.FoldCounters(0))})
		}
	}
	walk(reflect.ValueOf(est))
	return append(rows, maps...)
}

func marshal(est backend.Estimator) []byte {
	blob, err := est.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return blob
}

func streamOf(us []stream.Update) *stream.Stream {
	s := stream.New(testOptions(0).N)
	for _, u := range us {
		s.Add(u.Item, u.Delta)
	}
	return s
}

// openAt opens spec with its window clock, if it has one, at tick.
func openAt(spec backend.Spec, tick uint64) backend.Estimator {
	est, err := backend.Open(spec)
	if err != nil {
		panic(err)
	}
	if win, ok := est.(backend.Windowed); ok {
		win.Advance(tick)
	}
	return est
}

// refused builds an opRefuse payload and what its refusal must name:
// another Spec's snapshot (another seed; another function for exact, whose
// counts are seed-free) a fingerprint mismatch, own with its last counter
// row broken the row, or own cut short (also on exact for a broken row:
// it has no rows).
func refused(t *testing.T, spec backend.Spec, o op, us []stream.Update, tick uint64, own []byte) (bad []byte, other backend.Estimator, names string) {
	switch o.Seed % 3 {
	case 0:
		spec.Options.Seed++
		if spec.Kind == backend.KindExact {
			spec.G = "x^3"
		}
		other = openAt(spec, tick)
		other.UpdateBatch(us)
		return marshal(other), other, "fingerprint mismatch"
	case 1:
		if spec.Kind != backend.KindExact {
			return sketchtest.BreakLastRow(t, own), nil, "wire: row of"
		}
	}
	return own[:o.Seed%uint64(len(own))], nil, ""
}

// libraryDoor is backend.Open's estimator, driven by method calls.
type libraryDoor struct {
	t    *testing.T
	spec backend.Spec
	est  backend.Estimator
	now  uint64
}

func (d *libraryDoor) do(o op, us []stream.Update) error {
	switch o.Kind {
	case opUpdate:
		for _, u := range us {
			d.est.Update(u.Item, u.Delta)
		}
	case opBatch:
		d.est.UpdateBatch(us)
	case opProcess:
		if _, twoPass := d.est.(backend.TwoPass); twoPass {
			// Process runs both passes: secondPass holds it to the whole
			// multiset instead.
			stream.Batches(us, d.est.UpdateBatch)
			return nil
		}
		return backend.Process(d.est, streamOf(us))
	case opMergeMem, opMergeWire:
		part := openAt(d.spec, d.now)
		part.UpdateBatch(us)
		if o.Kind == opMergeMem {
			return backend.Merge(d.est, part)
		}
		return d.est.UnmarshalBinary(marshal(part))
	case opFresh, opLive, opCheckpoint:
		blob := marshal(d.est)
		recv := openAt(d.spec, d.now)
		switch o.Kind {
		case opLive:
			recv.UpdateBatch(us)
		case opCheckpoint:
			d.est.UpdateBatch(us) // lost: the restore replaces the subject
		}
		if err := recv.UnmarshalBinary(blob); err != nil {
			return err
		}
		d.est = recv
	case opRefuse:
		before := marshal(d.est)
		bad, other, names := refused(d.t, d.spec, o, us, d.now, before)
		if err := d.est.UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), names) {
			return fmt.Errorf("UnmarshalBinary of a bad payload: %v, want a refusal naming %q", err, names)
		}
		if other != nil && backend.Merge(d.est, other) == nil {
			return fmt.Errorf("backend.Merge accepted another Spec's estimator")
		}
		if !bytes.Equal(before, marshal(d.est)) {
			return fmt.Errorf("a refused payload changed the subject")
		}
	case opAdvance:
		if win, ok := d.est.(backend.Windowed); ok {
			d.now = win.Advance(d.now + uint64(o.Len))
		}
	}
	return nil
}

func (d *libraryDoor) state() (state, error) {
	st := state{counters: counters(d.est), estimate: d.est.Estimate(), answers: answersOf(d.est)}
	if _, twoPass := d.est.(backend.TwoPass); !twoPass {
		st.snapshot = marshal(d.est)
	}
	return st, nil
}

func (d *libraryDoor) close() {}

// daemonOpener serves a subtest's sequences from two StartLoopback daemons
// per Spec: one is the subject, the other the part or receiver an op
// borrows. Binding a listener per op would cost more than the ops.
func daemonOpener(t *testing.T, stream bool) opener {
	pairs := map[uint64][2]*Loopback{}
	dir, cuts := t.TempDir(), new(int)
	return func(spec backend.Spec) (door, error) {
		p, ok := pairs[spec.Fingerprint()]
		if !ok {
			for i := range p {
				lb, err := StartLoopback(spec)
				if err != nil {
					return nil, err
				}
				t.Cleanup(lb.Stop)
				p[i] = lb
			}
			pairs[spec.Fingerprint()] = p
		}
		d := &daemonDoor{t: t, spec: spec, stream: stream, lbs: p, dir: dir, cuts: cuts}
		d.reset(p[0])
		return d, d.dial()
	}
}

// daemonDoor drives a loopback daemon: updates arrive in process and over
// /v1/ingest (the loopback door) or through a Pusher on /v1/stream (the
// stream door); every other op is a Client verb or a Server method.
type daemonDoor struct {
	t        *testing.T
	spec     backend.Spec
	stream   bool
	lbs      [2]*Loopback
	cur      int // the subject is lbs[cur]
	p        *Pusher
	now      uint64
	ingested uint64 // what /v1/config must report
	dir      string // the subtest's checkpoint directory, shared by its doors
	cuts     *int   // checkpoints written there, one file each
}

func (d *daemonDoor) subject() *Loopback { return d.lbs[d.cur] }

// reset gives lb a fresh estimator with its clock at the subject's and a
// zero ingest counter — by hand, so that no op under test resets it.
func (d *daemonDoor) reset(lb *Loopback) {
	fresh := openAt(d.spec, d.now)
	lb.Server.locked(func() { lb.Server.est, lb.Server.ingests = fresh, 0 })
}

// spare resets and returns the daemon that is not the subject.
func (d *daemonDoor) spare() *Loopback {
	lb := d.lbs[1-d.cur]
	d.reset(lb)
	return lb
}

func (d *daemonDoor) dial() (err error) {
	if d.stream {
		d.p, err = d.subject().Client.NewPusher(context.Background(), PusherConfig{MaxBatch: 128})
	}
	return err
}

func (d *daemonDoor) close() {
	if d.p != nil {
		_ = d.p.Close()
		d.p = nil
	}
}

// ingest feeds us through the door's update path — one update in process,
// a batch as JSON, a bulk load in process in Process's batches — or all
// three through the Pusher, flushed.
func (d *daemonDoor) ingest(k opKind, us []stream.Update) error {
	d.ingested += uint64(len(us))
	switch {
	case len(us) == 0:
		return nil
	case d.stream:
		if err := d.p.Push(us); err != nil {
			return err
		}
		return d.p.Flush()
	case k == opBatch:
		return postIngest(context.Background(), d.subject().Client, us)
	}
	var err error
	stream.Batches(us, func(b []stream.Update) {
		if err == nil {
			err = d.subject().Server.IngestBatch(b)
		}
	})
	return err
}

func (d *daemonDoor) do(o op, us []stream.Update) error {
	ctx, c := context.Background(), d.subject().Client
	switch o.Kind {
	case opUpdate, opBatch, opProcess:
		return d.ingest(o.Kind, us)
	case opMergeMem:
		part := d.spare()
		if err := part.Server.IngestBatch(us); err != nil {
			return err
		}
		return c.PullFromContext(ctx, []string{part.Client.Base()})
	case opMergeWire:
		part := openAt(d.spec, d.now)
		part.UpdateBatch(us)
		return c.MergeContext(ctx, marshal(part))
	case opFresh, opLive:
		snap, err := c.SnapshotContext(ctx)
		if err != nil {
			return err
		}
		recv := d.spare()
		d.ingested = 0
		if o.Kind == opLive {
			d.ingested = uint64(len(us))
			if err := recv.Server.IngestBatch(us); err != nil {
				return err
			}
		}
		if err := recv.Client.MergeContext(ctx, snap); err != nil {
			return err
		}
		d.close()
		d.cur = 1 - d.cur
		return d.dial()
	case opRefuse:
		before, err := c.SnapshotContext(ctx)
		if err != nil {
			return err
		}
		bad, _, names := refused(d.t, d.spec, o, us, d.now, before)
		if err := c.MergeContext(ctx, bad); err == nil || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), names) {
			return fmt.Errorf("/v1/merge of a bad payload: %v, want a 409 naming %q", err, names)
		}
		after, err := c.SnapshotContext(ctx)
		if err != nil {
			return err
		}
		if !bytes.Equal(before, after) {
			return fmt.Errorf("a refused payload changed the daemon")
		}
	case opAdvance:
		tick, err := c.AdvanceContext(ctx, d.now+uint64(o.Len))
		if d.spec.Kind != backend.KindWindow {
			if err == nil {
				return fmt.Errorf("a %s daemon accepted /v1/advance", d.spec.Kind)
			}
			return nil
		}
		d.now = tick
		return err
	case opCheckpoint:
		// The cut is checkpointBytes, the bytes WriteCheckpoint fsyncs to a
		// temp file and renames (TestCheckpointWriteIsAtomic holds that
		// part); unlinking a fsynced file stalls ~25 ms on a journaled
		// disk, so each cut goes unsynced to a file of its own.
		cut, err := d.subject().Server.checkpointBytes()
		if err != nil {
			return err
		}
		*d.cuts++
		path := filepath.Join(d.dir, fmt.Sprint(*d.cuts))
		if err := os.WriteFile(path, cut, 0o600); err != nil {
			return err
		}
		at := d.ingested
		if err := d.ingest(opBatch, us); err != nil {
			return err
		}
		d.ingested = at
		return d.subject().Server.RestoreCheckpoint(path)
	}
	return nil
}

func (d *daemonDoor) state() (state, error) {
	ctx, lb := context.Background(), d.subject()
	var st state
	var est backend.Estimator
	lb.Server.locked(func() { st.counters, est = counters(lb.Server.est), lb.Server.est })
	var err error
	if st.snapshot, err = lb.Client.SnapshotContext(ctx); err != nil {
		return st, err
	}
	res, err := lb.Client.EstimateContext(ctx, nil)
	if err != nil {
		return st, err
	}
	for _, v := range []*float64{res.Estimate, res.F2, res.WeightSum} {
		if v != nil {
			st.estimate = *v
		}
	}
	for _, e := range res.Cover {
		st.answers.cover = append(st.answers.cover, e.Item)
	}
	if res.Tick != nil && res.Window != nil && res.StaleTicks != nil {
		st.answers.clock = &[3]uint64{*res.Tick, *res.Window, *res.StaleTicks}
	}
	if _, ok := est.(backend.PointQuerier); ok {
		for _, item := range oracleProbes {
			r, err := lb.Client.EstimateContext(ctx, url.Values{"item": {strconv.FormatUint(item, 10)}})
			if err != nil {
				return st, err
			}
			if r.Item == nil || *r.Item != item || r.Estimate == nil {
				return st, fmt.Errorf("?item=%d answered %+v", item, r)
			}
			st.answers.points = append(st.answers.points, *r.Estimate)
		}
	}
	if _, ok := est.(backend.FuncQuerier); ok {
		r, err := lb.Client.EstimateContext(ctx, url.Values{"g": {oraclePostHoc}})
		if err != nil {
			return st, err
		}
		if r.G != oraclePostHoc || r.Estimate == nil {
			return st, fmt.Errorf("?g=%s answered %+v", oraclePostHoc, r)
		}
		st.answers.post = r.Estimate
	}
	info, err := lb.Client.ConfigContext(ctx)
	if err != nil {
		return st, err
	}
	if info.Ingested != d.ingested {
		return st, fmt.Errorf("/v1/config reports %d updates ingested, want %d", info.Ingested, d.ingested)
	}
	return st, nil
}
