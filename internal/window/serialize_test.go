package window

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gfunc"
)

// drivenWindow builds a window of panes seeded with seed, advanced
// through a fixed tick sequence and, if fill, fed its updates.
func drivenWindow(t *testing.T, seed uint64, fill bool) *Window {
	t.Helper()
	opts := smallOpts
	opts.Seed = seed
	w, err := New(gfunc.F2Func(), opts, Config{W: 10, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range randomDrive(13, 800) {
		w.Advance(u.tick)
		if fill {
			w.Update(u.item, 1)
		}
	}
	return w
}

// TestWindowWireRoundTrip: decoding a snapshot into an empty window
// driven through the same ticks reproduces the sender byte for byte,
// and decoding it twice doubles the counters (merge semantics).
func TestWindowWireRoundTrip(t *testing.T) {
	src := drivenWindow(t, 1, true)
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	dst := drivenWindow(t, 1, false)
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	round, err := dst.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(round, data) {
		t.Fatal("round-tripped snapshot differs from original")
	}

	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// Merge semantics: wire-merging the same shard twice must equal an
	// in-process double merge.
	twice := drivenWindow(t, 1, false)
	if err := twice.Merge(src); err != nil {
		t.Fatal(err)
	}
	if err := twice.Merge(src); err != nil {
		t.Fatal(err)
	}
	wantDouble, _ := twice.MarshalBinary()
	gotDouble, _ := dst.MarshalBinary()
	if !bytes.Equal(gotDouble, wantDouble) {
		t.Fatal("wire double-merge differs from in-process double merge")
	}
}

// TestWindowWireRejections: truncation, corrupt fingerprints, clock
// drift, and trailing garbage must all error — and must leave the
// receiver untouched (staged-before-mutate).
func TestWindowWireRejections(t *testing.T) {
	src := drivenWindow(t, 1, true)
	valid, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *Window { return drivenWindow(t, 1, false) }
	check := func(name string, data []byte, wantSub string) {
		t.Helper()
		dst := fresh()
		before, _ := dst.MarshalBinary()
		err := dst.UnmarshalBinary(data)
		if err == nil {
			t.Fatalf("%s: decode unexpectedly succeeded", name)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
		}
		after, _ := dst.MarshalBinary()
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: failed decode mutated the receiver", name)
		}
	}

	for _, cut := range []int{0, 4, 13, 14, 22, 30, len(valid) / 2, len(valid) - 1} {
		check("truncated", valid[:cut], "")
	}

	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	check("bad magic", badMagic, "magic")

	badFP := append([]byte(nil), valid...)
	badFP[7] ^= 0xff // inside the u64 fingerprint
	check("bad fingerprint", badFP, "fingerprint")

	check("trailing bytes", append(append([]byte(nil), valid...), 0xde, 0xad), "trailing")

	// A receiver with a different seed has a different fingerprint.
	other := drivenWindow(t, 2, false)
	if err := other.UnmarshalBinary(valid); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("seed mismatch not caught by fingerprint: %v", err)
	}

	// A receiver at a different clock must refuse even a valid payload.
	drifted := drivenWindow(t, 1, false)
	drifted.Advance(drifted.Now() + 7)
	if err := drifted.UnmarshalBinary(valid); err == nil ||
		!strings.Contains(err.Error(), "clock") {
		t.Fatalf("clock mismatch not caught: %v", err)
	}

	// A receiver with another pane capacity differs in pane width AND
	// fingerprint.
	opts := smallOpts
	opts.Seed = 1
	diffK, err := New(gfunc.F2Func(), opts, Config{W: 10, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range randomDrive(13, 800) {
		diffK.Advance(u.tick)
	}
	if err := diffK.UnmarshalBinary(valid); err == nil {
		t.Fatal("K mismatch not detected")
	}
}

// TestHistogramFormatIsRefusedByName: a snapshot in the
// exponential-histogram window format, which listed bucket boundaries
// where panes follow from the clock, is refused with an error naming that
// format, and the receiver is left as it was. The corpus's seed-v6-valid
// is fuzzWindow's snapshot in that format, under the same fingerprint.
func TestHistogramFormatIsRefusedByName(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzWindowUnmarshal", "seed-v6-valid"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte("), ")")
	old, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	w := fuzzWindow()
	before, _ := w.MarshalBinary()
	if err := w.UnmarshalBinary([]byte(old)); err == nil || !strings.Contains(err.Error(), "exponential-histogram window format") {
		t.Fatalf("histogram-format snapshot: %v, want an error naming the exponential-histogram window format", err)
	}
	if after, _ := w.MarshalBinary(); !bytes.Equal(before, after) {
		t.Fatal("the refused snapshot changed the window")
	}
}
