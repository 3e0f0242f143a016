package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// shortScale runs every workload in well under a second: 2^14 updates,
// two rounds of one timed -S,+S pair.
var shortScale = scale{updates: 1 << 14, rounds: 2, estimates: 6, reads: 3}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all four workloads, untraced and traced, against the
// APIs they time, and holds what they emit to BENCHMARK.json: every
// metric named there exactly once (result.set panics on a second), no
// other, with the unit given there; every correctness check passing;
// the span tree well formed; the ladder's selfs adding up to its top.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var results []*result
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, bf.Workloads[i].Name, w.name)
		}
		res, err := runEndToEnd(w, shortScale, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, res, endToEnd)
		results = append(results, res)

		traced, err := runTraced(w, shortScale, 1, 0)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkResult(t, traced, perLayer)
		checkLadder(t, traced)
		checkSpans(t, filepath.Join(outDir, "spans-"+w.name+".json"))
	}

	// Two identical result sets compare as equal, row by row.
	path := filepath.Join(outDir, "set.json")
	for _, res := range results {
		if err := appendJSON(path, res); err != nil {
			t.Fatal(err)
		}
	}
	var table bytes.Buffer
	if err := compareFiles(&table, path, path); err != nil {
		t.Errorf("-compare of a set with itself: %v\n%s", err, table.String())
	}
	if rows := bytes.Count(table.Bytes(), []byte("\n")); rows != 1+len(workloads)*len(endToEnd) {
		t.Errorf("-compare printed %d lines, want a header and %d rows:\n%s", rows, len(workloads)*len(endToEnd), table.String())
	}
}

func checkResult(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s (trace %v): %d of %d operations failed: %v", res.Workload, res.Trace, res.Failed, res.Attempted, res.Failures)
	}
	for name, m := range res.Metrics {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: emits %s, which BENCHMARK.json does not name", res.Workload, name)
		case unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", res.Workload, name, m.Unit, unit)
		case !nameRE.MatchString(name):
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", res.Workload, name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, name, m.Value)
		}
	}
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("%s (trace %v): does not emit %s", res.Workload, res.Trace, name)
		}
	}
}

// checkLadder: the selfs along the stream path telescope to the top
// rung, so whatever a layer saves shows in exactly one of them.
func checkLadder(t *testing.T, res *result) {
	t.Helper()
	v := func(name string) float64 { return res.Metrics[name].Value }
	sum := 0.0
	for _, layer := range []string{"xhash.self", "sketch.self", "heavy.self", "recursive.self", "core.self",
		"backend.self", "daemon.apply_self", "wire.self", "daemon.transport_self"} {
		sum += v(layer + "_ns_per_upd")
	}
	if top := v("daemon.stream_ns_per_upd"); math.Abs(sum-top) > 1e-6*top {
		t.Errorf("%s: selfs sum to %v ns/upd, the stream rung is %v", res.Workload, sum, top)
	}
	if top := v("daemon.mixed_ns_per_upd"); math.Abs(sum+v("daemon.readers_self_ns_per_upd")-top) > 1e-6*top {
		t.Errorf("%s: selfs with readers do not sum to the mixed rung %v", res.Workload, top)
	}
}

// checkSpans: IDs are positions, every parent and Below span exists,
// and a parent encloses its children in time.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	passes := 0
	for i, s := range spans {
		if s.ID != i+1 || s.EndNs < s.StartNs {
			t.Fatalf("%s: span %d has ID %d and runs %d..%d", path, i+1, s.ID, s.StartNs, s.EndNs)
		}
		if s.Parent == 0 {
			if i != 0 {
				t.Errorf("%s: span %d (%s) has no parent", path, s.ID, s.Name)
			}
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) || s.Below < 0 || s.Below > len(spans) {
			t.Fatalf("%s: span %d (%s) points at parent %d, below %d of %d spans", path, s.ID, s.Name, s.Parent, s.Below, len(spans))
		}
		if p := spans[s.Parent-1]; p.StartNs > s.StartNs || p.EndNs < s.EndNs {
			t.Errorf("%s: span %d (%s, %d..%d) is not inside its parent %d (%s, %d..%d)",
				path, s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
		}
		if s.Below != 0 {
			passes++
			if b := spans[s.Below-1]; b.Pass != s.Pass || b.Updates != s.Updates {
				t.Errorf("%s: span %d (%s pass %d) sits on span %d (%s pass %d)", path, s.ID, s.Name, s.Pass, b.ID, b.Name, b.Pass)
			}
		}
	}
	if passes == 0 {
		t.Errorf("%s: no ladder pass sits on another", path)
	}
}
