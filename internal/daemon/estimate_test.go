package daemon

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/backend"
)

// TestEstimateBetweenBatchesChangesNothing: a daemon answers estimates
// between frames, so a read must leave the state as it found it.
// TestOracle cannot show that: its subject and its replay are asked only
// at the end, and alike. Here every kind takes the same batches twice,
// once with every question a kind answers (Estimate, point queries,
// EstimateFor, the cover, the clock) asked after each batch, and once
// without; the counters, the snapshot bytes (the trackers' candidates
// among them) and the final answers must be the same, within tracker
// capacity and past it.
func TestEstimateBetweenBatchesChangesNothing(t *testing.T) {
	for _, kind := range oracleKinds {
		for _, wide := range []bool{false, true} {
			seq := sequence{Kind: kind, Wide: wide}
			spec := oracleSpec(kind, 1)
			asked, quiet := openAt(spec, 0), openAt(spec, 0)
			for k := uint64(0); k < 8; k++ {
				us := seq.updates(op{Kind: opBatch, Seed: 100 + k, Len: 300})
				for _, est := range []backend.Estimator{asked, quiet} {
					est.UpdateBatch(us)
				}
				_ = asked.Estimate()
				_ = answersOf(asked)
			}
			if !reflect.DeepEqual(counters(asked), counters(quiet)) {
				t.Errorf("%s (wide %v): estimates between batches moved the counters", kind, wide)
			}
			if !bytes.Equal(marshal(asked), marshal(quiet)) {
				t.Errorf("%s (wide %v): estimates between batches moved the snapshot bytes", kind, wide)
			}
			if a, q := asked.Estimate(), quiet.Estimate(); math.Float64bits(a) != math.Float64bits(q) {
				t.Errorf("%s (wide %v): estimate %v, %v without the reads between batches", kind, wide, a, q)
			}
			if a, q := answersOf(asked), answersOf(quiet); !reflect.DeepEqual(a, q) {
				t.Errorf("%s (wide %v): answers %+v, %+v without the reads between batches", kind, wide, a, q)
			}
		}
	}
}
