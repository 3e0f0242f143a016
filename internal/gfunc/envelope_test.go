package gfunc

import (
	"math"
	"testing"
)

// measureEnvelopeQuadratic is MeasureEnvelope as a plain scan over every
// grid pair, evaluating ln g and ln ⌊y/x⌋ in place for each: the
// reference the memoized scan is held to.
func measureEnvelopeQuadratic(g Func, m uint64) Envelope {
	grid := Grid(m, 1024)
	prefixMaxLog, drop, jump := math.Inf(-1), 0.0, 0.0
	for i, y := range grid {
		ly := LogEval(g, y)
		if i > 0 {
			if d := prefixMaxLog - ly; d > drop {
				drop = d
			}
			for _, x := range grid[:i] {
				j := ly - LogEval(g, x) - 2*math.Log(float64(y/x))
				if j > jump {
					jump = j
				}
			}
		}
		if ly > prefixMaxLog {
			prefixMaxLog = ly
		}
	}
	return Envelope{Drop: math.Exp(drop), Jump: math.Exp(jump)}
}

// TestEnvelopeMatchesQuadraticScan holds MeasureEnvelope, which takes each
// grid point's log once and each quotient's log once per run of equal
// quotients, to the pair-by-pair scan bit for bit: every catalog function,
// from a grid of 4 points to one past the dense prefix.
func TestEnvelopeMatchesQuadraticScan(t *testing.T) {
	for _, e := range Catalog() {
		for _, m := range []uint64{4, 100, 1 << 12, 1 << 16} {
			got, want := MeasureEnvelope(e.Func, m), measureEnvelopeQuadratic(e.Func, m)
			if math.Float64bits(got.Drop) != math.Float64bits(want.Drop) ||
				math.Float64bits(got.Jump) != math.Float64bits(want.Jump) {
				t.Errorf("%s at M = %d: envelope %+v, the quadratic scan's %+v", e.Func.Name(), m, got, want)
			}
		}
	}
}
