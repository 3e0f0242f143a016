package sketch

// A CountSketch starts sparse: an exact table of item → net count, which
// reproduces every counter exactly because a row is linear — counter
// (j, h) is Σ sign_j(i)·v_i over the items i with bucket_j(i) = h, and
// int64 addition wraps the same in any order. A read replays the table
// into a b-wide scratch row, runs the dense code on it and clears what it
// touched; the sketch materializes the dense matrix once the table would
// outgrow it, or a tracked table is handed more items in one batch than
// one re-score chunk holds (CountSketch.Apply, CountSketch.materialize).

// table is a sparse CountSketch's state: the items with a nonzero net
// count, each with its row hashes cached so a replay re-hashes nothing.
// An entry whose count reaches 0 is removed: a −S pass empties the table.
// The table never allocates more than budget bytes, the matrix's size:
// an item it has no room for is the sketch's cue to materialize. The
// empty table of an r x b sketch is newTable(r, b).
type table struct {
	buckets uint64
	budget  int
	items   []uint64
	counts  []int64
	// hashes[j][e] is the packed row-j hash, bucket<<1 | sign bit, of
	// items[e], set by place. Row-major, so a point query's pass down one
	// row reads a contiguous array.
	hashes [][]uint32
	// slots indexes entries by item: open-addressed, linear-probe over
	// mix64(item), slots[s] = entry index + 1 (0 = empty), a power of two
	// at most half full. Removal shifts back, so there are no tombstones.
	slots []int32
	// occ counts the entries in every bucket of every row, 2 bits a
	// counter, row-major: 0, 1, or 2 for "2 or more, now or since the
	// table was last empty" — a count saturates and never comes back
	// down, so 0 and 1 are exact. A point query whose bucket holds 0
	// entries, or 1 that is the item's own, then needs no pass down the
	// row (counter). Allocated with the first entry, cleared with the
	// last.
	occ []uint64
}

func newTable(r int, b uint64) table {
	return table{buckets: b, budget: r * int(b) * 8, hashes: make([][]uint32, r)}
}

// occWords is the size of an r x b table's occupancy counters in words.
func occWords(r int, b uint64) int { return int((uint64(r)*b + 31) / 32) }

// bytes returns what the table holds allocated: its slices' capacities.
func (t *table) bytes() int {
	n := 8*cap(t.items) + 8*cap(t.counts) + 4*len(t.slots) + 8*len(t.occ)
	for _, h := range t.hashes {
		n += 4 * cap(h)
	}
	return n
}

// lookup probes the index for item: its slot and entry, or the empty slot
// the probe ended on and -1.
func (t *table) lookup(item uint64) (s uint64, e int) {
	if len(t.slots) == 0 {
		return 0, -1
	}
	mask := uint64(len(t.slots) - 1)
	for s = mix64(item) & mask; t.slots[s] != 0; s = (s + 1) & mask {
		if e := int(t.slots[s]) - 1; t.items[e] == item {
			return s, e
		}
	}
	return s, -1
}

// find returns item's entry, or -1.
func (t *table) find(item uint64) int {
	_, e := t.lookup(item)
	return e
}

// add adds d to item's net count. It returns the item's entry, -1 if it
// has none — d was 0, or the count reached 0 and the entry was removed —
// and whether add opened it: the last entry, whose row hashes the caller
// places. ok is false, and nothing changed, if the item needed an entry
// the table has no room for.
func (t *table) add(item uint64, d int64) (e int, fresh, ok bool) {
	s, e := t.lookup(item)
	switch {
	case d == 0:
		return e, false, true
	case e >= 0:
		if t.counts[e] += d; t.counts[e] == 0 {
			t.remove(s)
			return -1, false, true
		}
		return e, false, true
	case !t.grow():
		return -1, false, false
	}
	s, _ = t.lookup(item) // grow may have rebuilt the index
	t.slots[s] = int32(len(t.items)) + 1
	t.items = append(t.items, item)
	t.counts = append(t.counts, d)
	for j, h := range t.hashes {
		t.hashes[j] = append(h, 0)
	}
	return len(t.items) - 1, true, true
}

// grow makes room for one more entry and reports whether it could within
// the budget. Capacity doubles up to 256 entries and grows by a quarter
// beyond (append's policy, without its rounding up), and the index
// doubles to stay at most half full.
func (t *table) grow() bool {
	r, n := len(t.hashes), len(t.items)+1
	c, slots := cap(t.items), len(t.slots)
	if n > c {
		c = max(16, 2*c)
		if cap(t.items) >= 256 {
			c = cap(t.items) + cap(t.items)/4
		}
	}
	if 2*n > slots {
		slots = max(16, 2*slots)
	}
	if (16+4*r)*c+4*slots+8*occWords(r, t.buckets) > t.budget {
		return false
	}
	if t.occ == nil {
		t.occ = make([]uint64, occWords(r, t.buckets))
	}
	if slots != len(t.slots) {
		t.reindex(slots)
	}
	if c != cap(t.items) {
		t.items = resize(t.items, c)
		t.counts = resize(t.counts, c)
		for j, h := range t.hashes {
			t.hashes[j] = resize(h, c)
		}
	}
	return true
}

// resize returns s in a new array of capacity c.
func resize[T any](s []T, c int) []T {
	grown := make([]T, len(s), c)
	copy(grown, s)
	return grown
}

// place sets the row-j hash of entry e, which add just opened.
func (t *table) place(e, j int, p uint32) {
	t.hashes[j][e] = p
	w, sh := t.occAt(j, p)
	if (t.occ[w]>>sh)&3 < 2 {
		t.occ[w] += 1 << sh
	}
}

// occAt locates the occupancy counter of the bucket p names in row j:
// word w, bits sh and sh+1.
func (t *table) occAt(j int, p uint32) (w int, sh uint) {
	i := uint64(j)*t.buckets + uint64(p>>1)
	return int(i / 32), uint(i%32) * 2
}

// reindex rebuilds the index at size slots.
func (t *table) reindex(size int) {
	t.slots = make([]int32, size)
	mask := uint64(size - 1)
	for e, it := range t.items {
		s := mix64(it) & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(e) + 1
	}
}

// remove deletes the entry slot s points at: the last entry moves into
// its place, and the index closes the gap by backward shift (as
// topTracker.unindex does).
func (t *table) remove(s uint64) {
	mask := uint64(len(t.slots) - 1)
	e, last := int(t.slots[s])-1, len(t.items)-1
	hole := s
	t.slots[hole] = 0
	for s := (hole + 1) & mask; t.slots[s] != 0; s = (s + 1) & mask {
		home := mix64(t.items[t.slots[s]-1]) & mask
		if (s-home)&mask < (s-hole)&mask {
			continue // home lies after the hole: the entry stays reachable
		}
		t.slots[hole], t.slots[s] = t.slots[s], 0
		hole = s
	}
	for j, h := range t.hashes {
		if w, sh := t.occAt(j, h[e]); (t.occ[w]>>sh)&3 == 1 {
			t.occ[w] -= 1 << sh
		}
	}
	if e != last {
		for s := mix64(t.items[last]) & mask; ; s = (s + 1) & mask {
			if int(t.slots[s])-1 == last {
				t.slots[s] = int32(e) + 1
				break
			}
		}
		t.items[e], t.counts[e] = t.items[last], t.counts[last]
		for _, h := range t.hashes {
			h[e] = h[last]
		}
	}
	t.items, t.counts = t.items[:last], t.counts[:last]
	for j, h := range t.hashes {
		t.hashes[j] = h[:last]
	}
	if last == 0 {
		clear(t.occ) // nothing left: every saturated count is 0 again
	}
}

// scatter adds row j's share of every entry into row, a b-wide row of
// counters: row then holds the table's row j (on zeros) or the sum.
func (t *table) scatter(j int, row []int64) {
	cs := t.counts
	for e, p := range t.hashes[j] {
		row[p>>1] += signed(p, cs[e])
	}
}

// gather is scatter for the buckets marked only: they then hold their
// row-j counters, every other bucket of row stays as it was.
func (t *table) gather(j int, row []int64, mark []bool) {
	cs := t.counts
	for e, p := range t.hashes[j] {
		if mark[p>>1] {
			row[p>>1] += signed(p, cs[e])
		}
	}
}

// unscatter zeroes every bucket of row j that scatter touched.
func (t *table) unscatter(j int, row []int64) {
	for _, p := range t.hashes[j] {
		row[p>>1] = 0
	}
}

// counter returns the row-j counter of the bucket packed hash p names,
// where e is the entry p belongs to (-1: an item without one). A bucket
// the occupancy counters show empty, or holding e alone, is read off
// them; any other takes one pass down the row, summing the entries there.
func (t *table) counter(j int, p uint32, e int) int64 {
	if t.occ == nil {
		return 0
	}
	w, sh := t.occAt(j, p)
	switch (t.occ[w] >> sh) & 3 {
	case 0:
		return 0
	case 1:
		if e >= 0 {
			return signed(p, t.counts[e])
		}
	}
	hs := t.hashes[j]
	cs := t.counts[:len(hs)]
	var c int64
	for e, q := range hs {
		if q^p < 2 { // the same bucket, whatever the signs
			c += signed(q, cs[e])
		}
	}
	return c
}

// replay is the b-wide scratch row a sparse sketch replays its table into
// for a read, and the bucket marks of a gather, one of each per owner:
// ShareRowHashes hands them to every level of a stack with the row hashes,
// so the stack holds one row, not one a level. Both stay all zeros
// between reads.
type replay struct {
	row  []int64
	mark []bool
}
