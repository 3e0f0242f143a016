package workload

import (
	"testing"

	"repro/internal/stream"
)

// generated keeps BenchmarkGenerate's streams live.
var generated *stream.Stream

// BenchmarkGenerate times each catalog generator at the benchmark's
// scale: daemon-stream's stream (2^16 items of a 2^20 domain, 2^20
// updates), and uniform also at lib-uniform's 2^19 items.
func BenchmarkGenerate(b *testing.B) {
	cfg := Config{N: 1 << 20, Items: 1 << 16, Length: 1 << 20, Seed: 1}
	run := func(name string, g Generator, cfg Config) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				generated = g.Generate(cfg)
			}
		})
	}
	for _, g := range Generators() {
		run(g.Name(), g, cfg)
	}
	lib := cfg
	lib.Items = 1 << 19
	run("uniform-items=2^19", Uniform{}, lib)
}
