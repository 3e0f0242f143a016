package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/stream"
)

// pinConfigs are the stream configurations the pin holds: the sweep's
// (sweep.json), daemon-stream's and lib-uniform's (bench/), and a full
// domain, whose working set must be a permutation of [0, N) and so
// draws item 0.
var pinConfigs = []struct {
	name  string
	cfg   Config
	short bool // also run under -short
}{
	{"sweep", Config{N: 1 << 16, Items: 4096, Length: 131072, Seed: 1}, true},
	{"fulldomain", Config{N: 64, Items: 64, Length: 4096, Seed: 3}, true},
	{"daemon-stream", Config{N: 1 << 20, Items: 1 << 16, Length: 1 << 20, Seed: 1}, false},
	{"lib-uniform", Config{N: 1 << 20, Items: 1 << 19, Length: 1 << 20, Seed: 1}, false},
}

// generatorPins are FNV-64a digests of every catalog generator's
// updates (item, then delta, 8 bytes little-endian each) per pin
// config; a TickedGenerator has a second entry, "<name>/ticked", over
// GenerateTicked's updates and then its ticks. They were recorded
// before the generators' sampler, working set and stream sizing were
// rewritten for speed, which had to leave every stream byte-identical.
var generatorPins = map[string]map[string]uint64{
	"sweep": {
		"zipf":            0x5cfee3fa79f6e284,
		"uniform":         0x814cad9c71ae18a4,
		"needle":          0x247b8a3591b7b453,
		"bursty":          0xb1beb1d5cf62637e,
		"bursty/ticked":   0xd90fbf1900064abd,
		"permuted":        0x962078acce300120,
		"permuted/ticked": 0xb2c99661d3b0be54,
		"drift":           0xa4a07f60766401a3,
		"drift/ticked":    0x2fbee2e5bca401a3,
		"adversarial":     0x8553ac84010927f1,
		"flashcrowd":      0x1462f0ca9ca23a4f,
		"diurnal":         0x5cfee3fa79f6e284,
		"diurnal/ticked":  0x1603df18831ee428,
		"trace":           0x251eb6635cfd47aa,
	},
	"fulldomain": {
		"zipf":            0x34ab705f84a9939d,
		"uniform":         0xc4c79b69e414dac6,
		"needle":          0xa610e3991925d741,
		"bursty":          0x02ff48a4e78b1d2a,
		"bursty/ticked":   0xcae514c5df7c3d78,
		"permuted":        0xe3fdbf23c6c7e71d,
		"permuted/ticked": 0x055b539bbcf45e9d,
		"drift":           0xc87d6630eb253429,
		"drift/ticked":    0xd9ed69f1cb7d3429,
		"adversarial":     0x83239c4c9124a88a,
		"flashcrowd":      0x207c0be2b7965970,
		"diurnal":         0x34ab705f84a9939d,
		"diurnal/ticked":  0xb46fa4c24e1ed89f,
		"trace":           0x49a3d7a7745ba28a,
	},
	"daemon-stream": {
		"zipf":            0xe37afc2d6a8d6c87,
		"uniform":         0x4d71f3dedd356dcc,
		"needle":          0x3b488ef4c947058d,
		"bursty":          0x88e0ac78969675d4,
		"bursty/ticked":   0x6309b3a82f8cb6c8,
		"permuted":        0xa7c6304581f19f0b,
		"permuted/ticked": 0x87ec55e9d92b6f47,
		"drift":           0xab86ae4b590d415a,
		"drift/ticked":    0x15399af5528d415a,
		"adversarial":     0x16f749e3619e70f4,
		"flashcrowd":      0x9df401cbe2712297,
		"diurnal":         0xe37afc2d6a8d6c87,
		"diurnal/ticked":  0x6f73a3e33fb5bc05,
		"trace":           0xd9dc403c7b2586b0,
	},
	"lib-uniform": {
		"zipf":            0x654f0911f4cb9046,
		"uniform":         0x0237394c5ffa538b,
		"needle":          0x71005c154a1d2f1e,
		"bursty":          0x85a69d6694d9cee3,
		"bursty/ticked":   0x2766fcf7eec72ebf,
		"permuted":        0x58a75484158456f2,
		"permuted/ticked": 0x88593851db44bafe,
		"drift":           0x0112c59cf931c87a,
		"drift/ticked":    0xc1c28f3602b1c87a,
		"adversarial":     0xe057d33f3830bdf6,
		"flashcrowd":      0x19288be3dbc68d7b,
		"diurnal":         0x654f0911f4cb9046,
		"diurnal/ticked":  0x5531865165624b04,
		"trace":           0xd9dc403c7b2586b0,
	},
}

// digestUpdates folds updates, and then ticks if any, into one FNV-64a
// digest.
func digestUpdates(ups []stream.Update, ticks []uint64) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 16*stream.BatchSize)
	flush := func() {
		_, _ = h.Write(buf)
		buf = buf[:0]
	}
	for _, u := range ups {
		if len(buf) == cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint64(buf, u.Item)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(u.Delta))
	}
	flush()
	for _, t := range ticks {
		if len(buf) == cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint64(buf, t)
	}
	flush()
	return h.Sum64()
}

// TestGeneratorsPinned holds every catalog generator's stream, and
// every ticked generator's ticks, to the digests recorded in
// generatorPins: a faster sampler or working set must draw the same
// ranks and items from the same rng in the same order. -short and -race
// run only the sweep and full-domain configs; -v prints the digests as a
// literal.
func TestGeneratorsPinned(t *testing.T) {
	for _, pc := range pinConfigs {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			if (testing.Short() || raceEnabled) && !pc.short {
				t.Skip("2^20-update streams; run without -short or -race")
			}
			got := map[string]uint64{}
			for _, g := range Generators() {
				got[g.Name()] = digestUpdates(g.Generate(pc.cfg).Updates(), nil)
				if tg, ok := g.(TickedGenerator); ok {
					ts := tg.GenerateTicked(pc.cfg)
					got[g.Name()+"/ticked"] = digestUpdates(ts.Stream.Updates(), ts.Ticks)
				}
			}
			var lit string
			for _, g := range Generators() {
				for _, k := range []string{g.Name(), g.Name() + "/ticked"} {
					if d, ok := got[k]; ok {
						lit += fmt.Sprintf("\t\t%q: %#016x,\n", k, d)
					}
				}
			}
			t.Logf("%q: {\n%s\t},", pc.name, lit)
			want := generatorPins[pc.name]
			if len(want) != len(got) {
				t.Fatalf("%d digests pinned, %d generated", len(want), len(got))
			}
			for k, d := range got {
				if want[k] != d {
					t.Errorf("%s: digest %#016x, pinned %#016x", k, d, want[k])
				}
			}
		})
	}
}
