package hotpath

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gfunc"
	"repro/internal/stream"
)

// queueDepth is the capacity, in batches, of each shard's channel: deep
// enough to absorb bursty routing imbalance before routers block.
const queueDepth = 64

// batchSize is how many routed updates a router buffers per shard
// before sending the batch: smaller batches keep shards busier, larger
// ones amortize the channel handoff.
const batchSize = engine.DefaultBatchSize / 4

// ShardedEstimator owns P identically-configured one-pass shards and
// routes every update to shard hash(item) mod P. Process ingests
// concurrently through per-shard channels; Update/UpdateBatch route
// synchronously. Estimate and MarshalBinary fold the shards into a
// fresh one-pass estimator, so they are repeatable and leave the shards
// untouched, and the marshaled snapshot is the SAME wire format as a
// single shard's — a sharded worker interoperates with serial peers on
// the wire.
//
// Like every estimator in the repository, a ShardedEstimator is not
// goroutine-safe from the caller's side: Process parallelizes
// internally, but concurrent method calls need external serialization
// (the daemon's state lock provides it).
type ShardedEstimator struct {
	g      gfunc.Func
	opts   core.Options
	shards []*core.OnePassEstimator

	// route is reusable synchronous-path scratch: one buffer per shard.
	route [][]stream.Update

	// pool recycles batch buffers between routers and consumers.
	pool sync.Pool
}

// New builds a ShardedEstimator of `shards` one-pass estimators for g
// (< 1 means GOMAXPROCS). Every shard is built from the same opts, hence
// the same seeds and hash functions — the seed discipline the
// bit-identity contract rests on.
func New(g gfunc.Func, opts core.Options, shards int) *ShardedEstimator {
	p := engine.Workers(shards)
	se := &ShardedEstimator{
		g:      g,
		opts:   opts,
		shards: make([]*core.OnePassEstimator, p),
		route:  make([][]stream.Update, p),
	}
	se.pool.New = func() any { return make([]stream.Update, 0, batchSize) }
	for i := range se.shards {
		se.shards[i] = core.NewOnePass(g, opts)
	}
	return se
}

// Shards returns the shard count.
func (se *ShardedEstimator) Shards() int { return len(se.shards) }

// shardOf routes an item: a strong multiplicative mix (the SplitMix64
// finalizer) over the item, reduced mod P. Routing must be a pure
// function of the item — that is what makes the partition a disjoint
// split of the frequency vector — and mixing first keeps structured
// domains (sequential IDs, strided keys) from aliasing onto one shard.
func (se *ShardedEstimator) shardOf(item uint64) int {
	x := item
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(se.shards)))
}

// Update routes one update to its shard synchronously.
func (se *ShardedEstimator) Update(item uint64, delta int64) {
	se.shards[se.shardOf(item)].Update(item, delta)
}

// UpdateBatch partitions the batch by item hash and applies each
// sub-batch to its shard, on the calling goroutine. Within a shard the
// original update order is preserved, so the counter state equals the
// equivalent sequence of Update calls exactly.
func (se *ShardedEstimator) UpdateBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	if len(se.shards) == 1 {
		se.shards[0].UpdateBatch(batch)
		return
	}
	for i := range se.route {
		se.route[i] = se.route[i][:0]
	}
	for _, u := range batch {
		s := se.shardOf(u.Item)
		se.route[s] = append(se.route[s], u)
	}
	for i, sub := range se.route {
		if len(sub) > 0 {
			se.shards[i].UpdateBatch(sub)
		}
	}
}

// Process ingests the whole update slice through the concurrent path:
// one router per shard hashes its contiguous chunk into per-shard
// batches and sends them over that shard's bounded channel, one
// consumer per shard drains its channel into the shard sketch, and
// Process returns only after every goroutine has joined — no goroutine
// outlives the call. A full channel blocks the router (backpressure,
// never a dropped batch). Because routing is per-item, the shard states
// (and therefore the merged estimate) do not depend on router count,
// chunk boundaries, or scheduling.
func (se *ShardedEstimator) Process(updates []stream.Update) error {
	p := len(se.shards)
	if p == 1 || len(updates) < 2*batchSize {
		engine.Ingest(se, updates, 0)
		return nil
	}

	queues := make([]chan []stream.Update, p)
	var consumers sync.WaitGroup
	for i := range queues {
		queues[i] = make(chan []stream.Update, queueDepth)
		consumers.Add(1)
		go func(q <-chan []stream.Update, sh *core.OnePassEstimator) {
			defer consumers.Done()
			for b := range q {
				sh.UpdateBatch(b)
				se.pool.Put(b[:0])
			}
		}(queues[i], se.shards[i])
	}

	engine.ParallelChunks(updates, p, func(_ int, chunk []stream.Update) {
		local := make([][]stream.Update, p)
		for i := range local {
			local[i] = se.pool.Get().([]stream.Update)
		}
		for _, u := range chunk {
			s := se.shardOf(u.Item)
			local[s] = append(local[s], u)
			if len(local[s]) == batchSize {
				queues[s] <- local[s]
				local[s] = se.pool.Get().([]stream.Update)
			}
		}
		for s, b := range local {
			if len(b) > 0 {
				queues[s] <- b
			} else {
				se.pool.Put(b[:0])
			}
		}
	})

	for _, q := range queues {
		close(q)
	}
	consumers.Wait()
	return nil
}

// merged folds every shard into a fresh estimator. The shards are never
// mutated, so merged is repeatable: calling Estimate between Process
// calls always reflects exactly the updates applied so far.
func (se *ShardedEstimator) merged() (*core.OnePassEstimator, error) {
	dst := core.NewOnePass(se.g, se.opts)
	for i, sh := range se.shards {
		if err := dst.Merge(sh); err != nil {
			return nil, fmt.Errorf("hotpath: merge shard %d: %w", i, err)
		}
	}
	return dst, nil
}

// Estimate is EstimateFor the shards' own g.
func (se *ShardedEstimator) Estimate() float64 { return se.EstimateFor(se.g) }

// EstimateFor merges the shards and answers for g from the union state
// (core.OnePassEstimator.EstimateFor) — by linearity, exactly the serial
// estimator's answer over the same updates. The shards and the merge
// target are all built from one (g, opts), so the merge cannot fail
// except for a bug in this package; that panics rather than returning a
// silent garbage estimate.
func (se *ShardedEstimator) EstimateFor(g gfunc.Func) float64 {
	m, err := se.merged()
	if err != nil {
		panic("hotpath: Estimate: " + err.Error())
	}
	return m.EstimateFor(g)
}

// SpaceBytes reports the total sketch state across shards.
func (se *ShardedEstimator) SpaceBytes() int {
	total := 0
	for _, sh := range se.shards {
		total += sh.SpaceBytes()
	}
	return total
}

// Depth reports the shards' common number of subsampling levels and how
// full the deepest level is across them: the shards split the items
// between them, so the merged sketch's deepest tracker holds the sum of
// theirs, against one tracker's capacity (see core.OnePassEstimator.Depth).
func (se *ShardedEstimator) Depth() (levels, deepestTracked, deepestCapacity int) {
	for _, sh := range se.shards {
		var tracked int
		levels, tracked, deepestCapacity = sh.Depth()
		deepestTracked += tracked
	}
	return levels, deepestTracked, deepestCapacity
}

// Dims reports the shards' common per-level CountSketch rows and buckets.
func (se *ShardedEstimator) Dims() (rows int, buckets uint64) { return se.shards[0].Dims() }

// Fingerprint is the shards' common seed fingerprint (they are
// identically configured), which is also the fingerprint of the merged
// snapshot MarshalBinary emits.
func (se *ShardedEstimator) Fingerprint() uint64 {
	return se.shards[0].Fingerprint()
}

// MarshalBinary snapshots the merged state in the shard kind's own wire
// format: a sharded worker's snapshot decodes anywhere a serial one
// does.
func (se *ShardedEstimator) MarshalBinary() ([]byte, error) {
	m, err := se.merged()
	if err != nil {
		return nil, err
	}
	return m.MarshalBinary()
}

// UnmarshalBinary folds a snapshot INTO the estimator (merge
// semantics, like every wire decode in the repository) by applying it
// to shard 0 — linearity makes any shard as good as any other.
func (se *ShardedEstimator) UnmarshalBinary(data []byte) error {
	return se.shards[0].UnmarshalBinary(data)
}
