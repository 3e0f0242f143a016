package daemon

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/util"
)

// BenchmarkPusherOneUpdateFrames pushes 32,768 updates as one-update
// frames (MaxBatch 1) to a loopback daemon in one Push, then Flushes,
// with a queue that holds 1,024 of them and one that holds all. Taking a
// frame moves the rest of the queue to its front, so the deep queue
// costs more; at the default MaxBuffered (4 x MaxBatch) that move is at
// most three frames.
func BenchmarkPusherOneUpdateFrames(b *testing.B) {
	const updates = 1 << 15
	for _, maxBuffered := range []int{1 << 10, 1 << 15} {
		b.Run(fmt.Sprintf("MaxBuffered=%d", maxBuffered), func(b *testing.B) {
			spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
			_, c := streamServer(b, spec)
			p, err := c.NewPusher(context.Background(), PusherConfig{MaxBatch: 1, MaxBuffered: maxBuffered})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			batch := randomBatch(util.NewSplitMix64(37), updates)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Push(batch); err != nil {
					b.Fatal(err)
				}
				if err := p.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
