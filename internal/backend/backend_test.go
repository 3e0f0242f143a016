package backend

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/window"
)

// specFor returns a valid Spec for a kind at test scale. Every
// registered kind must have an entry here (the loop tests fail on a
// missing one), so adding a kind forces cross-backend coverage.
func specFor(kind Kind, seed uint64) Spec {
	s := Spec{
		Kind:    kind,
		G:       "x^2",
		Options: core.Options{N: 1 << 12, M: 1 << 10, Eps: 0.25, Lambda: 1.0 / 16, Seed: seed},
	}
	switch kind {
	case KindWindow:
		s.Window = window.Config{W: 8, K: 2}
	case KindTwoPass:
		s.Workers = 2
	case KindCountSketch:
		s.G = ""
	}
	return s
}

// testStream keeps distinct items below the candidate trackers'
// capacity, the regime where merged and serial estimates agree exactly.
func testStream(seed uint64) *stream.Stream {
	return stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 90, 1.1)
}

// ingest drives the full protocol for any kind: feed the stream, and
// for two-pass kinds finish pass 1 and feed it again.
func ingest(t *testing.T, est Estimator, s *stream.Stream) {
	t.Helper()
	if err := Process(est, s); err != nil {
		t.Fatal(err)
	}
}

// TestOpenAllKinds: every registered kind constructs through Open.
func TestOpenAllKinds(t *testing.T) {
	for _, name := range Kinds() {
		est, err := Open(specFor(Kind(name), 7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if est == nil {
			t.Fatalf("%s: nil estimator", name)
		}
	}
}

// TestOpenRoundTripBitIdentical is the cross-backend wire property: for
// every registered kind, Open(spec) → ingest → MarshalBinary →
// Open(same spec) → UnmarshalBinary → Estimate is bit-identical to the
// run that never crossed the wire.
func TestOpenRoundTripBitIdentical(t *testing.T) {
	for _, name := range Kinds() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec := specFor(Kind(name), 11)
			s := testStream(3)

			direct, err := Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			ingest(t, direct, s)
			want := direct.Estimate()

			blob, err := direct.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			if w, ok := fresh.(Windowed); ok {
				// A snapshot only decodes onto a window at the same tick.
				w.Advance(direct.(Windowed).Now())
			}
			if err := fresh.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			if got := fresh.Estimate(); got != want {
				t.Errorf("round-trip estimate %.17g != direct %.17g", got, want)
			}
		})
	}
}

// TestOpenShardMergeEqualsSerial: for every kind with a linear wire
// merge, two half-stream shards folded into a coordinator equal the
// serial run bit for bit.
func TestOpenShardMergeEqualsSerial(t *testing.T) {
	for _, name := range Kinds() {
		kind := Kind(name)
		if kind == KindTwoPass {
			// The two-pass protocol distributes candidates, not snapshots;
			// core's RunParallel covers it.
			continue
		}
		t.Run(name, func(t *testing.T) {
			spec := specFor(kind, 13)
			s := testStream(5)
			updates := s.Updates()
			n := len(updates)

			serial, err := Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			serial.UpdateBatch(updates)
			want := serial.Estimate()

			coord, err := Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, bounds := range [][2]int{{0, n / 2}, {n / 2, n}} {
				shard, err := Open(spec)
				if err != nil {
					t.Fatal(err)
				}
				shard.UpdateBatch(updates[bounds[0]:bounds[1]])
				if err := Merge(coord, shard); err != nil {
					t.Fatal(err)
				}
			}
			if got := coord.Estimate(); got != want {
				t.Errorf("shard-merged estimate %.17g != serial %.17g", got, want)
			}
		})
	}
}

// TestEstimateForOwnGIsEstimate: the kinds that answer post-hoc queries
// (onepass, sharded on 2 workers, window) answer EstimateFor of their own
// Spec.G bit for bit as Estimate, and no other kind answers them.
func TestEstimateForOwnGIsEstimate(t *testing.T) {
	s := testStream(7)
	posthoc := map[Kind]bool{KindOnePass: true, KindSharded: true, KindWindow: true}
	for _, name := range Kinds() {
		spec := specFor(Kind(name), 17)
		spec.Workers = 2
		est, err := Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		fq, ok := est.(FuncQuerier)
		if ok != posthoc[spec.Kind] {
			t.Errorf("%s: answers post-hoc queries %v, want %v", name, ok, posthoc[spec.Kind])
		}
		if !ok {
			continue
		}
		ingest(t, est, s)
		g, err := CatalogFunc(spec.G)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fq.EstimateFor(g), est.Estimate(); a != b {
			t.Errorf("%s: EstimateFor(%s) %.17g != Estimate %.17g", name, spec.G, a, b)
		}
	}
}

// TestSpecFingerprintSensitivity: a Spec differing in any single field
// fingerprints differently, so the daemon handshake rejects it before
// any snapshot is merged.
func TestSpecFingerprintSensitivity(t *testing.T) {
	base := specFor(KindOnePass, 7)
	fp := base.Fingerprint()

	mutate := []struct {
		name string
		mut  func(*Spec)
	}{
		{"Kind", func(s *Spec) { s.Kind = KindSharded }},
		{"G", func(s *Spec) { s.G = "x^1" }},
		{"Options.N", func(s *Spec) { s.Options.N = 1 << 13 }},
		{"Options.M", func(s *Spec) { s.Options.M = 1 << 11 }},
		{"Options.Eps", func(s *Spec) { s.Options.Eps = 0.5 }},
		{"Options.Delta", func(s *Spec) { s.Options.Delta = 0.1 }},
		{"Options.Lambda", func(s *Spec) { s.Options.Lambda = 1.0 / 8 }},
		{"Options.Levels", func(s *Spec) { s.Options.Levels = 4 }},
		{"Options.WidthFactor", func(s *Spec) { s.Options.WidthFactor = 2 }},
		{"Options.Seed", func(s *Spec) { s.Options.Seed = 8 }},
		{"Options.Envelope", func(s *Spec) { s.Options.Envelope = 99 }},
		{"Window.W", func(s *Spec) { s.Kind = KindWindow; s.Window = window.Config{W: 8} }},
		{"Workers", func(s *Spec) { s.Workers = 3 }},
		{"Rows", func(s *Spec) { s.Kind = KindCountSketch; s.G = ""; s.Rows = 7 }},
		{"Buckets", func(s *Spec) { s.Kind = KindCountSketch; s.G = ""; s.Buckets = 2048 }},
		{"TopK", func(s *Spec) { s.Kind = KindCountSketch; s.G = ""; s.TopK = 16 }},
	}
	for _, m := range mutate {
		mutated := base
		m.mut(&mutated)
		if mutated.Fingerprint() == fp {
			t.Errorf("%s: mutated spec fingerprints identically", m.name)
		}
	}

	// And the estimator-level wire format also refuses the snapshot for
	// fields that shape the sketch (defense in depth under the handshake).
	a, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.Options.Seed = 8
	b, err := Open(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalBinary(blob); err == nil {
		t.Error("different-seed snapshot decoded without error")
	}
}

// TestSpecFingerprintNormalizes: zero-value defaults and their resolved
// forms are the same configuration, so they fingerprint identically.
func TestSpecFingerprintNormalizes(t *testing.T) {
	implicit := Spec{Kind: KindOnePass, G: "x^2", Options: core.Options{N: 1 << 12, M: 1 << 10}}
	explicit := implicit
	explicit.Options = explicit.Options.WithDefaults()
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Error("defaulted and resolved specs fingerprint differently")
	}

	// The countsketch kind is function-free: a stray G canonicalizes
	// away, so frontends that leave it set still fingerprint (and
	// handshake) identically to ones that clear it.
	bare := Spec{Kind: KindCountSketch, Options: core.Options{N: 1 << 10, Seed: 3}}
	stray := bare
	stray.G = "x^2"
	if bare.Fingerprint() != stray.Fingerprint() {
		t.Error("countsketch specs with and without a stray G fingerprint differently")
	}
	n, err := stray.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.G != "" {
		t.Errorf("countsketch normalization kept G = %q", n.G)
	}
}

// TestCanonicalJSONRoundTrips: CanonicalJSON → ParseSpec is the
// identity on normalized specs, and equal specs encode to equal bytes.
func TestCanonicalJSONRoundTrips(t *testing.T) {
	for _, name := range Kinds() {
		spec := specFor(Kind(name), 3)
		data, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Fingerprint() != spec.Fingerprint() {
			t.Errorf("%s: JSON round trip changed the fingerprint", name)
		}
		again, err := back.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(again) != string(data) {
			t.Errorf("%s: canonical encoding is not a fixed point:\n%s\n%s", name, data, again)
		}
	}
}

// TestNormalizeRejectsInvalidSpecs: errors, not silent clamps.
func TestNormalizeRejectsInvalidSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"empty kind", Spec{}, "Kind is required"},
		{"unknown kind", Spec{Kind: "nope", Options: core.Options{N: 4}}, "unknown kind"},
		{"zero domain", specWith(func(s *Spec) { s.Options.N = 0 }), "must be positive"},
		{"negative M", specWith(func(s *Spec) { s.Options.M = -1 }), "Options.M"},
		{"eps too big", specWith(func(s *Spec) { s.Options.Eps = 1.5 }), "Options.Eps"},
		{"delta negative", specWith(func(s *Spec) { s.Options.Delta = -0.1 }), "Options.Delta"},
		{"lambda too big", specWith(func(s *Spec) { s.Options.Lambda = 2 }), "Options.Lambda"},
		{"levels too deep", specWith(func(s *Spec) { s.Options.Levels = 31 }), "Options.Levels"},
		{"removed parallel kind", specWith(func(s *Spec) { s.Kind = "parallel" }), "unknown kind"},
		{"removed universal kind", specWith(func(s *Spec) { s.Kind = "universal"; s.Options.Envelope = 16 }), "unknown kind"},
		{"negative workers", specWith(func(s *Spec) { s.Workers = -1 }), "Workers"},
		{"sharded workers over the cap", specWith(func(s *Spec) { s.Kind = KindSharded; s.Workers = 100000000 }), "Workers must be at most"},
		{"unknown function", specWith(func(s *Spec) { s.G = "nope" }), "unknown catalog function"},
		{"missing function", specWith(func(s *Spec) { s.G = "" }), "catalog function name is required"},
		{"window without W", specWith(func(s *Spec) { s.Kind = KindWindow }), "Window.W"},
		{"window K of 1", specWith(func(s *Spec) { s.Kind = KindWindow; s.Window = window.Config{W: 4, K: 1} }), "Window.K"},
		{"countsketch wider than a packed hash", Spec{Kind: KindCountSketch, Options: core.Options{N: 4}, Buckets: 1<<31 + 1}, "Buckets must be at most"},
	}
	for _, c := range cases {
		if _, err := c.spec.Normalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
		if _, err := Open(c.spec); err == nil {
			t.Errorf("%s: Open accepted an invalid spec", c.name)
		}
	}
}

func specWith(mut func(*Spec)) Spec {
	s := specFor(KindOnePass, 1)
	mut(&s)
	return s
}
