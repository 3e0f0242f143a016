package sketch

// dense materializes a fresh sketch and returns it: the dense twin a
// sparse sketch of the same seed is held to. It is a test door, not a
// knob.
func dense(cs *CountSketch) *CountSketch {
	cs.materialize()
	return cs
}

// counters returns a copy of the counter matrix, row-major, whether the
// sketch holds it or replays it.
func (cs *CountSketch) counters() []int64 {
	out := make([]int64, 0, uint64(cs.rows)*cs.buckets)
	cs.eachRow(func(_ int, row []int64) { out = append(out, row...) })
	return out
}

// sparse reports whether the sketch still holds a table.
func (cs *CountSketch) sparse() bool { return cs.flat == nil }
