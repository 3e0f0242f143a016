package recursive

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/stream"
	"repro/internal/util"
)

// TestTwoPassStateDigest pins the full state of a two-pass recursive
// sketch — every level's first-pass counters, the candidate identities
// FinishPass1 extracted (in extraction order) and their second-pass
// tabulations — after both passes over the stream of
// core.TestOnePassStateDigest, each pass fed as full batches, ragged
// batches and single updates. Recorded at efb0b66, before the batch
// cascade became one shared plan (PR 19); re-recorded once with layout
// version 2 (PR 21), once with version 3 (PR 27), which moved no
// counter here — Algorithm 1's dims call resolves to 5 rows of 2048
// buckets over 257 candidates under either sizing — only the version
// every header carries, and once with version 4 (PR 29), which writes the
// same first-pass counters in the row codec.
func TestTwoPassStateDigest(t *testing.T) {
	const want = "2a1cc4345af693f4774203f42e4790850bd40967e81e91005eac54521341ac2a"
	rng := util.NewSplitMix64(0x16d1635)
	ups := make([]stream.Update, 1<<16)
	for i := range ups {
		it := rng.Uint64n(1 << 15)
		d := int64(rng.Uint64n(9)) - 4
		if rng.Uint64n(8) == 0 {
			it = rng.Uint64n(32)
			d = int64(rng.Uint64n(2001)) - 1000
		}
		ups[i] = stream.Update{Item: it, Delta: d}
	}
	g := gfunc.F2Func()
	seed := util.NewSplitMix64(7)
	hh := seed.Fork()
	sk := NewTwoPass(TwoPassConfig{
		N: 1 << 20,
		MakeSketcher: func(int) heavy.TwoPassSketcher {
			return heavy.NewTwoPass(heavy.TwoPassConfig{G: g, Lambda: 1.0 / 16, Delta: 0.2, H: 4}, hh.Fork())
		},
	}, seed.Fork())
	feed := func(batch func([]stream.Update), single func(uint64, int64)) {
		half := len(ups) / 2
		for i := 0; i < half; i += 4096 {
			batch(ups[i : i+4096])
		}
		i := half
		for n := 1; i+n <= len(ups)-1024; n = n%257 + 1 {
			batch(ups[i : i+n])
			i += n
		}
		for _, u := range ups[i:] {
			single(u.Item, u.Delta)
		}
	}
	feed(sk.Pass1Batch, sk.Pass1)
	sk.FinishPass1()
	feed(sk.Pass2Batch, sk.Pass2)
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("state digest %s, want %s", got, want)
	}
}
