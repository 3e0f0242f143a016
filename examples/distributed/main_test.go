package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke test: the example must run cleanly and print the landmarks a
// reader is told to look for. Everything is seeded, so the output is
// deterministic.
func TestRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"sharded == serial: exact agreement",
		"merged shards",
		"want 9: the ±500 cancels",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}
