package daemon

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/stream"
	"repro/internal/util"
)

// randomBatch draws n updates over items [0, 4096), the test Spec's domain.
func randomBatch(rng *util.SplitMix64, n int) []stream.Update {
	b := make([]stream.Update, n)
	for i := range b {
		b[i] = stream.Update{Item: rng.Uint64n(1 << 12), Delta: int64(rng.Uint64n(9)) - 4}
	}
	return b
}

// waitAcked waits, without a Flush, until the daemon has acked every
// update the Pusher accepted.
func waitAcked(t *testing.T, p *Pusher) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st := p.Stats(); st.Acked != st.Enqueued; st = p.Stats() {
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("acked %d of %d updates after 10 s", st.Acked, st.Enqueued)
		}
		time.Sleep(time.Millisecond)
	}
}

// liveHeap collects and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamSteadyStateAllocFree is the allocation gate of the stream
// transport, both ends at once: a Pusher sends default frames over a
// loopback connection to /v1/stream, which reads, decodes, applies and
// acks them. Once the buffers on both ends and the sketch's scratch have
// grown, a frame costs less than one allocation process-wide.
func TestStreamSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	_, c := streamServer(t, spec)
	p, err := c.NewPusher(context.Background(), PusherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rng := util.NewSplitMix64(29)
	batches := make([][]stream.Update, 4)
	for k := range batches {
		batches[k] = randomBatch(rng, DefaultPushBatch)
	}
	push := func(frames int) {
		for i := 0; i < frames; i++ {
			if err := p.Push(batches[i%len(batches)]); err != nil {
				t.Fatal(err)
			}
		}
		waitAcked(t, p)
	}
	push(16) // warm-up: grow every buffer and the sketch's scratch
	const frames = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	push(frames)
	runtime.ReadMemStats(&after)
	if st := p.Stats(); st.Frames != 16+frames {
		t.Fatalf("%d frames sent, want %d default frames", st.Frames, 16+frames)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs >= frames {
		t.Errorf("%d allocations for %d frames, want under one a frame", mallocs, frames)
	}
}

// TestStreamSessionDropsANearCapFrame: a session keeps its payload and
// batch buffers across frames only up to streamKeepUpdates updates. One
// frame near the frame cap (8 MB of payload, 8 MB decoded) is read and
// decoded into buffers dropped after its apply, and the Pusher, drained
// by Flush, drops its queue and frame buffer, and the estimator collapses
// the frame's batch into a one-off sketch.Batch (it is past
// sketch.KeepBatch): the live heap after it is what it was before.
func TestStreamSessionDropsANearCapFrame(t *testing.T) {
	const big = 500_000 // 8,000,026 payload bytes: under the 8 MiB cap
	spec := backend.Spec{Kind: backend.KindOnePass, G: "x^2", Options: testOptions(7)}
	_, c := streamServer(t, spec)
	p, err := c.NewPusher(context.Background(), PusherConfig{MaxBatch: big})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rng := util.NewSplitMix64(31)
	if err := p.Push(randomBatch(rng, DefaultPushBatch)); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil { // the session now keeps a default frame's buffers
		t.Fatal(err)
	}
	huge := randomBatch(rng, big)
	before := liveHeap()
	if err := p.Push(huge); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(huge)
	if st := p.Stats(); st.Frames != 2 || st.Acked != DefaultPushBatch+big {
		t.Fatalf("stats %+v, want 2 frames acking %d updates", st, DefaultPushBatch+big)
	}
	if grew := int64(after) - int64(before); grew > 2<<20 {
		t.Errorf("live heap grew %d bytes across one %d-update frame: something keeps it", grew, big)
	}
}
