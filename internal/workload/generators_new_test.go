package workload

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/xhash"
)

// TestNewGeneratorsRegistered: the catalog grew to ten scenarios and
// every new name resolves.
func TestNewGeneratorsRegistered(t *testing.T) {
	if got := len(Generators()); got != 10 {
		t.Fatalf("catalog has %d generators, want 10", got)
	}
	for _, want := range []string{"drift", "adversarial", "flashcrowd", "diurnal", "trace"} {
		g, ok := Lookup(want)
		if !ok {
			t.Fatalf("Lookup(%q) failed", want)
		}
		if g.Name() != want || g.Description() == "" {
			t.Fatalf("%s: bad name/description", want)
		}
	}
}

// perTickVectors groups a ticked stream into per-tick frequency vectors.
func perTickVectors(ts *TickedStream) map[uint64]stream.Vector {
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

// topOf returns the item with the largest absolute frequency.
func topOf(v stream.Vector) uint64 {
	var top uint64
	var best int64
	for it, c := range v {
		if a := util.SatAbsInt64(c); a > best {
			best, top = a, it
		}
	}
	return top
}

// TestDriftHeadRotates: the drifting scenario's per-tick head must
// actually move — the top item of the first tick differs from the top
// item of the last tick, and skew grows (last tick more concentrated
// than the first).
func TestDriftHeadRotates(t *testing.T) {
	cfg := Config{N: 1 << 12, Items: 256, Length: 40000, Seed: 7, Ticks: 16}
	ts := Drift{}.GenerateTicked(cfg)
	vecs := perTickVectors(ts)
	first, last := vecs[0], vecs[uint64(cfg.Ticks-1)]
	if first == nil || last == nil {
		t.Fatalf("missing tick segments: have %d", len(vecs))
	}
	if topOf(first) == topOf(last) {
		t.Fatalf("head did not rotate: item %d tops both first and last tick", topOf(first))
	}
	share := func(v stream.Vector) float64 {
		var total, top int64
		for _, c := range v {
			total += util.SatAbsInt64(c)
		}
		top = util.SatAbsInt64(v[topOf(v)])
		return float64(top) / float64(total)
	}
	if share(last) <= share(first) {
		t.Errorf("skew did not ramp: first-tick top share %.3f, last-tick %.3f", share(first), share(last))
	}
}

// TestAdversarialCollidersCollide: every decoy Colliders returns must
// share the victim's (bucket, sign) in at least one row of a
// CountSketch drawn from the same seed — re-derived here exactly the
// way sketch.NewCountSketch draws its families.
func TestAdversarialCollidersCollide(t *testing.T) {
	cfg := Config{N: 1 << 16, Items: 512, Length: 1000, Seed: 9}
	adv := Adversarial{}
	victim, decoys := adv.Colliders(cfg)
	if len(decoys) < adv.rows() {
		t.Fatalf("scan found only %d decoys for %d rows", len(decoys), adv.rows())
	}
	srng := util.NewSplitMix64(cfg.Seed * 7)
	rows := make([]*xhash.Sign, adv.rows())
	for j := range rows {
		rows[j] = xhash.NewSign(4, srng.Fork())
	}
	b := adv.buckets()
	for _, d := range decoys {
		hit := false
		for _, h := range rows {
			if h.Bucket(d, b) == h.Bucket(victim, b) && h.Hash(d) == h.Hash(victim) {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("decoy %d collides with victim %d in no row", d, victim)
		}
	}
}

// TestAdversarialDegradesPointQuery is the attack working end to end:
// a CountSketch opened from the seed the generator targeted answers the
// victim's point query with a large error, while the same sketch
// configuration on the benign zipf stream answers its top item
// accurately. This is the contrast the sweep report's point-error
// column documents.
func TestAdversarialDegradesPointQuery(t *testing.T) {
	cfg := Config{N: 1 << 16, Items: 512, Length: 1 << 16, Seed: 9}
	sketchSeed := cfg.Seed * 7

	ingest := func(g Generator) (*sketch.CountSketch, stream.Vector) {
		s := g.Generate(cfg)
		cs := sketch.NewCountSketch(5, 1<<10, util.NewSplitMix64(sketchSeed))
		for _, u := range s.Updates() {
			cs.Update(u.Item, u.Delta)
		}
		return cs, s.Vector()
	}

	adv := Adversarial{}
	victim, _ := adv.Colliders(cfg)
	cs, v := ingest(adv)
	truth := v[victim]
	got := cs.Estimate(victim)
	advErr := util.RelErr(float64(got), float64(truth))

	zcs, zv := ingest(Zipf{})
	top := topOf(zv)
	zipfErr := util.RelErr(float64(zcs.Estimate(top)), float64(zv[top]))

	if advErr < 4*zipfErr || advErr < 0.5 {
		t.Fatalf("attack did not land: victim point-query rel err %.3f (zipf top item %.4f)", advErr, zipfErr)
	}
}

// TestAdversarialHarmlessAgainstOtherSeed: against a sketch drawn from
// a different seed the same stream is just another skewed workload —
// the victim's point query stays accurate. The attack exploits the
// seed, not a weakness in the median estimator.
func TestAdversarialHarmlessAgainstOtherSeed(t *testing.T) {
	cfg := Config{N: 1 << 16, Items: 512, Length: 1 << 16, Seed: 9}
	adv := Adversarial{}
	victim, _ := adv.Colliders(cfg)
	s := adv.Generate(cfg)
	cs := sketch.NewCountSketch(5, 1<<10, util.NewSplitMix64(12345))
	for _, u := range s.Updates() {
		cs.Update(u.Item, u.Delta)
	}
	truth := s.Vector()[victim]
	if err := util.RelErr(float64(cs.Estimate(victim)), float64(truth)); err > 0.5 {
		t.Fatalf("unseeded sketch should answer accurately, rel err %.3f", err)
	}
}

// TestFlashCrowdRegimeChange: no heavy hitter before the break, a
// dominant one after it, and the crowd item is drawn from the tail of
// the shared working set.
func TestFlashCrowdRegimeChange(t *testing.T) {
	cfg := Config{N: 1 << 12, Items: 256, Length: 40000, Seed: 7}
	f := FlashCrowd{}
	s := f.Generate(cfg)
	updates := s.Updates()
	breakAt := len(updates) / 2

	half := func(lo, hi int) stream.Vector {
		v := make(stream.Vector)
		for _, u := range updates[lo:hi] {
			v[u.Item] += u.Delta
		}
		return v
	}
	pre, post := half(0, breakAt), half(breakAt, len(updates))
	preShare := float64(pre[topOf(pre)]) / float64(breakAt)
	if preShare > 0.05 {
		t.Errorf("pre-break top share %.3f, want uniform (no head)", preShare)
	}
	crowd := topOf(post)
	postShare := float64(post[crowd]) / float64(len(updates)-breakAt)
	if postShare < 0.5 || postShare > 0.7 {
		t.Errorf("post-break crowd share %.3f, want ~0.6", postShare)
	}
	// The crowd must be cold before the break: at most background mass.
	if float64(pre[crowd])/float64(breakAt) > 0.02 {
		t.Errorf("crowd item %d already warm before the break", crowd)
	}
}

// TestDiurnalVolumeSwings: per-tick volumes follow the load curve —
// the busiest tick carries several times the quietest — while total
// volume is exactly the configured length.
func TestDiurnalVolumeSwings(t *testing.T) {
	cfg := Config{N: 1 << 12, Items: 256, Length: 40000, Seed: 7, Ticks: 24}
	ts := Diurnal{}.GenerateTicked(cfg)
	if ts.Stream.Len() != cfg.Length {
		t.Fatalf("length %d, want %d", ts.Stream.Len(), cfg.Length)
	}
	counts := make(map[uint64]int)
	for _, tick := range ts.Ticks {
		counts[tick]++
	}
	min, max := cfg.Length, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if ratio := float64(max) / float64(min); ratio < 2.5 {
		t.Errorf("peak/trough tick volume ratio %.2f, want a pronounced curve (peak default 4)", ratio)
	}
}

// TestTraceReplay: the embedded trace replays deterministically, keeps
// its turnstile deletions, reads from a file when Path is set, and
// surfaces malformed sources through Validate instead of mid-generate.
func TestTraceReplay(t *testing.T) {
	cfg := Config{N: 1 << 12, Items: 256, Length: 2000, Seed: 7}
	tr := TraceReplay{}
	s := tr.Generate(cfg)
	if s.Len() != cfg.Length {
		t.Fatalf("length %d, want %d", s.Len(), cfg.Length)
	}
	if s.InsertionOnly() {
		t.Error("embedded trace lost its turnstile deletions")
	}

	// A file trace: same content as in-memory data gives the same stream.
	const csv = "1,5\n2,-3\n7\n# comment\n9,2\n"
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile := TraceReplay{Path: path}.Generate(cfg)
	fromData := TraceReplay{Data: []byte(csv)}.Generate(cfg)
	if !streamsEqual(fromFile, fromData) {
		t.Fatal("file and in-memory replays of the same CSV differ")
	}
	// Different seed shifts the fold but preserves the histogram.
	other := cfg
	other.Seed = 8
	shifted := TraceReplay{Data: []byte(csv)}.Generate(other)
	if streamsEqual(fromData, shifted) {
		t.Fatal("trace replay ignored the seed")
	}
	hist := func(s *stream.Stream) map[int64]int {
		h := make(map[int64]int)
		for _, c := range s.Vector() {
			h[c]++
		}
		return h
	}
	ha, hb := hist(fromData), hist(shifted)
	for c, n := range ha {
		if hb[c] != n {
			t.Fatalf("seeded fold changed the frequency histogram at count %d: %d vs %d", c, n, hb[c])
		}
	}

	for _, bad := range []TraceReplay{
		{Path: filepath.Join(t.TempDir(), "missing.csv")},
		{Data: []byte("1,2,3\n")},
		{Data: []byte("notanumber\n")},
		{Data: []byte("1,notanumber\n")},
		{Data: []byte("# only comments\n")},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted bad source %+v", bad)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("embedded trace failed Validate: %v", err)
	}
}
