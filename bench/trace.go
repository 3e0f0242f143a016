package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. Parent is the span that was open around
// it in wall-clock time (0 = none: the root). Below, on a ladder pass,
// is the same pass of the rung beneath: the rungs are standalone
// replays, so no rung runs inside another and the ladder relation
// cannot be the enclosing one; a layer's self time is its span's
// duration minus the duration of its Below span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Below   int    `json:"below,omitempty"`
	Name    string `json:"name"`
	Pass    int    `json:"pass,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Updates int    `json:"updates,omitempty"`
}

// tracer keeps spans in memory; write puts them on disk when the run
// ends. Only the goroutine that owns the tracer touches it; what another
// goroutine timed is added afterwards with add.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (IDs start at 1).
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
}

// add records a span that was timed elsewhere.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) get(id int) *span { return &t.spans[id-1] }

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
