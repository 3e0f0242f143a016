package wire

import (
	"strings"
	"testing"
)

func TestRoundTripAllFieldTypes(t *testing.T) {
	var w Writer
	w.Header(0x67535543, 12345)
	w.U32(7)
	w.U64(1 << 40)
	w.I64(-9)
	w.I64s([]int64{1, -2, 3})
	w.IDs([]uint64{4, 5})
	w.Blob([]byte("nested"))

	r := NewReader(w.Bytes())
	if err := r.Header(0x67535543, 12345); err != nil {
		t.Fatal(err)
	}
	if got := r.U32(); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -9 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.I64s(); len(got) != 3 || got[1] != -2 {
		t.Errorf("I64s = %v", got)
	}
	if got := r.IDs(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("IDs = %v", got)
	}
	if got := string(r.Blob()); got != "nested" {
		t.Errorf("Blob = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left over", r.Len())
	}
}

func TestHeaderRejections(t *testing.T) {
	var w Writer
	w.Header(0x11223344, 99)
	data := w.Bytes()

	if err := NewReader(data).Header(0x55667788, 99); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
	if err := NewReader(data).Header(0x11223344, 100); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("bad fingerprint: %v", err)
	}
	if err := NewReader(data[:5]).Header(0x11223344, 99); err == nil {
		t.Error("truncated header accepted")
	}
	// Unknown version.
	bad := append([]byte(nil), data...)
	bad[4], bad[5] = 0xff, 0xff
	if err := NewReader(bad).Header(0x11223344, 99); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}
}

func TestReaderIsStickyAndAllocationCapped(t *testing.T) {
	// A corrupt count far larger than the remaining bytes must error, not
	// allocate.
	var w Writer
	w.U32(1 << 30) // claims 2^30 elements
	w.U64(1)
	r := NewReader(w.Bytes())
	if got := r.I64s(); got != nil {
		t.Errorf("I64s on corrupt count = %v", got)
	}
	if r.Err() == nil {
		t.Fatal("expected truncated-list error")
	}
	// Sticky: subsequent reads keep failing silently.
	_ = r.U64()
	if r.Err() == nil {
		t.Error("error was cleared")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := Fingerprint(0, 1)
	b := Fingerprint(0, 2)
	if a == b {
		t.Error("fingerprint collision on adjacent values")
	}
	// Order sensitivity.
	if Fingerprint(Fingerprint(0, 1), 2) == Fingerprint(Fingerprint(0, 2), 1) {
		t.Error("fingerprint is order-insensitive")
	}
	if FingerprintString(0, "ab") == FingerprintString(0, "ba") {
		t.Error("string fingerprint is order-insensitive")
	}
}
