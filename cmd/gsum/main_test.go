package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	universal "repro"
	"repro/internal/daemon"
	"repro/internal/stream"
)

// The CLI is exercised through run(), the testable entry point: every
// command writes to the supplied writers and returns an exit code.

func gsum(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

func TestNoArgsShowsUsage(t *testing.T) {
	_, stderr, code := gsum(t)
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage:") {
		t.Errorf("stderr missing usage: %q", stderr)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, stderr, code := gsum(t, "frobnicate")
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown command") {
		t.Errorf("stderr: %q", stderr)
	}
}

func TestHelp(t *testing.T) {
	stdout, _, code := gsum(t, "help")
	if code != 0 {
		t.Errorf("exit code %d, want 0", code)
	}
	if !strings.Contains(stdout, "classify") || !strings.Contains(stdout, "estimate") {
		t.Errorf("help output incomplete: %q", stdout)
	}
}

func TestClassifySingleFunction(t *testing.T) {
	// A small witness range keeps the checkers fast.
	stdout, _, code := gsum(t, "classify", "-f", "x^2", "-m", "4096")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(stdout, "x^2") {
		t.Errorf("classification output missing function name: %q", stdout)
	}
	if !strings.Contains(stdout, "slow-jumping") {
		t.Errorf("classification output missing property lines: %q", stdout)
	}
}

func TestClassifyUnknownFunction(t *testing.T) {
	_, stderr, code := gsum(t, "classify", "-f", "nope", "-m", "64")
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown function") {
		t.Errorf("stderr: %q", stderr)
	}
}

func TestEstimateSerial(t *testing.T) {
	stdout, stderr, code := gsum(t, "estimate", "-n", "1024", "-m", "256", "-items", "100")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"g = x^2", "exact", "1-pass", "relative error"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("estimate output missing %q: %q", want, stdout)
		}
	}
}

func TestEstimateParallelWorkersMatchesSerial(t *testing.T) {
	// Same seed, different worker counts: -workers opens the sharded
	// kind, which merges by linearity, so the printed estimates must be
	// identical.
	serial, stderr, code := gsum(t, "estimate", "-n", "1024", "-m", "256", "-items", "80", "-seed", "3")
	if code != 0 {
		t.Fatalf("serial exit code %d, stderr: %s", code, stderr)
	}
	par, stderr, code := gsum(t, "estimate", "-n", "1024", "-m", "256", "-items", "80", "-seed", "3", "-workers", "4")
	if code != 0 {
		t.Fatalf("-workers 4 exit code %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(par, "sharded across 4 workers") {
		t.Errorf("-workers 4 output missing worker line: %q", par)
	}
	// The estimate on the final line must agree verbatim; the byte count
	// beside it does not (the sharded kind holds one sketch per shard).
	estimate := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		fields := strings.Fields(lines[len(lines)-1])
		if len(fields) < 2 || fields[0] != "1-pass" {
			t.Fatalf("no 1-pass line at the end of %q", s)
		}
		return fields[1]
	}
	if estimate(serial) != estimate(par) {
		t.Errorf("sharded estimate %s diverged from serial %s", estimate(par), estimate(serial))
	}
}

func TestEstimateTwoPassParallel(t *testing.T) {
	stdout, stderr, code := gsum(t, "estimate", "-passes", "2", "-n", "1024", "-m", "256",
		"-items", "80", "-workers", "4")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "2-pass") {
		t.Errorf("output missing 2-pass line: %q", stdout)
	}
}

func TestEstimateBadPasses(t *testing.T) {
	_, stderr, code := gsum(t, "estimate", "-passes", "3")
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "-passes must be 1 or 2") {
		t.Errorf("stderr: %q", stderr)
	}
}

func TestExperimentsSingle(t *testing.T) {
	stdout, stderr, code := gsum(t, "experiments", "-quick", "-run", "E1")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "E1") {
		t.Errorf("experiment output missing table header: %q", stdout)
	}
}

func TestExperimentsUnknown(t *testing.T) {
	_, stderr, code := gsum(t, "experiments", "-run", "E99")
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("stderr: %q", stderr)
	}
}

func TestUnknownSubcommandFlagFailsWithUsage(t *testing.T) {
	for _, sub := range []string{"classify", "estimate", "experiments", "push", "query"} {
		_, stderr, code := gsum(t, sub, "-bogus")
		if code != 2 {
			t.Errorf("%s -bogus: exit code %d, want 2", sub, code)
		}
		if !strings.Contains(stderr, "bogus") {
			t.Errorf("%s -bogus: stderr %q does not name the flag", sub, stderr)
		}
		if !strings.Contains(stderr, "-") || len(stderr) < 40 {
			t.Errorf("%s -bogus: stderr %q missing flag usage listing", sub, stderr)
		}
	}
}

func TestSubcommandHelpExitsZero(t *testing.T) {
	for _, sub := range []string{"classify", "estimate", "experiments", "push", "query"} {
		_, _, code := gsum(t, sub, "-h")
		if code != 0 {
			t.Errorf("%s -h: exit code %d, want 0", sub, code)
		}
	}
}

func TestStrayPositionalArgumentsRejected(t *testing.T) {
	_, stderr, code := gsum(t, "estimate", "junk")
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "unexpected arguments") {
		t.Errorf("stderr: %q", stderr)
	}
}

func TestPushValidatesShardBounds(t *testing.T) {
	_, stderr, code := gsum(t, "push", "-shard", "3", "-of", "2")
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "shard") {
		t.Errorf("stderr: %q", stderr)
	}
}

func TestPushQueryAgainstDaemon(t *testing.T) {
	// Full worker -> coordinator round trip through the real CLI code
	// paths: two workers absorb disjoint shards, the coordinator pulls
	// and answers, and the answer matches a single-process run exactly.
	spec := universal.Spec{Kind: universal.KindOnePass, G: "x^2",
		Options: universal.Options{N: 1 << 12, M: 1 << 10, Eps: 0.25, Seed: 42, Lambda: 1.0 / 16}}
	mk := func() *httptest.Server {
		srv, err := daemon.NewServer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	w1, w2, coord := mk(), mk(), mk()

	for i, w := range []*httptest.Server{w1, w2} {
		stdout, stderr, code := gsum(t, "push", "-addr", w.URL,
			"-seed", "7", "-shard", fmt.Sprint(i), "-of", "2")
		if code != 0 {
			t.Fatalf("push shard %d: exit %d, stderr %s", i, code, stderr)
		}
		if !strings.Contains(stdout, "pushed") {
			t.Errorf("push shard %d stdout: %q", i, stdout)
		}
	}
	stdout, stderr, code := gsum(t, "query", "-addr", coord.URL,
		"-pull", w1.URL+","+w2.URL)
	if code != 0 {
		t.Fatalf("query: exit %d, stderr %s", code, stderr)
	}

	serial, err := universal.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := universal.Process(serial,
		stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: 7}, 90, 1.1)); err != nil {
		t.Fatal(err)
	}

	// The query prints a merge banner followed by the JSON response.
	brace := strings.Index(stdout, "{")
	if brace < 0 {
		t.Fatalf("query output has no JSON object: %q", stdout)
	}
	var resp struct {
		Estimate float64 `json:"estimate"`
	}
	if err := json.Unmarshal([]byte(stdout[brace:]), &resp); err != nil {
		t.Fatalf("query output %q: %v", stdout, err)
	}
	if resp.Estimate != serial.Estimate() {
		t.Errorf("distributed estimate %.17g != serial %.17g", resp.Estimate, serial.Estimate())
	}
}

// --- gsum bench -------------------------------------------------------------

func TestBenchEachWorkloadSerial(t *testing.T) {
	for _, w := range []string{"zipf", "uniform", "needle", "bursty", "permuted"} {
		w := w
		t.Run(w, func(t *testing.T) {
			stdout, stderr, code := gsum(t, "bench", "-workload", w,
				"-n", "4096", "-items", "256", "-len", "20000")
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			for _, want := range []string{"workload " + w, "updates/s", "relative error", "exact"} {
				if !strings.Contains(stdout, want) {
					t.Errorf("output missing %q:\n%s", want, stdout)
				}
			}
		})
	}
}

func TestBenchBackendsPrintIdenticalEstimate(t *testing.T) {
	extract := func(stdout string) string {
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "estimate ") {
				return strings.Fields(line)[1]
			}
		}
		t.Fatalf("no estimate line in %q", stdout)
		return ""
	}
	args := []string{"bench", "-workload", "zipf", "-n", "4096", "-items", "128", "-len", "10000", "-seed", "3"}
	serialOut, stderr, code := gsum(t, append(args, "-backend", "serial")...)
	if code != 0 {
		t.Fatalf("serial: exit %d, stderr %q", code, stderr)
	}
	shOut, stderr, code := gsum(t, append(args, "-backend", "sharded", "-workers", "4")...)
	if code != 0 {
		t.Fatalf("sharded: exit %d, stderr %q", code, stderr)
	}
	dmnOut, stderr, code := gsum(t, append(args, "-backend", "daemon", "-workers", "2")...)
	if code != 0 {
		t.Fatalf("daemon: exit %d, stderr %q", code, stderr)
	}
	se, he, de := extract(serialOut), extract(shOut), extract(dmnOut)
	if se != he || se != de {
		t.Fatalf("estimates differ: serial %s, sharded %s, daemon %s", se, he, de)
	}
}

func TestBenchUnknownWorkloadListsCatalog(t *testing.T) {
	_, stderr, code := gsum(t, "bench", "-workload", "nope")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, w := range []string{"zipf", "uniform", "needle", "bursty", "permuted"} {
		if !strings.Contains(stderr, w) {
			t.Errorf("stderr missing workload %q in catalog listing:\n%s", w, stderr)
		}
	}
}

// TestBenchBackendListPrintsRegistry: `gsum bench -backend list` prints
// every registered backend kind from the registry and exits 0, so the
// CLI surface cannot drift from the code.
func TestBenchBackendListPrintsRegistry(t *testing.T) {
	stdout, stderr, code := gsum(t, "bench", "-backend", "list")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, kind := range universal.Kinds() {
		if !strings.Contains(stdout, kind) {
			t.Errorf("list output missing registered kind %q:\n%s", kind, stdout)
		}
	}
	// The ingestion topologies stay documented alongside.
	for _, topo := range []string{"serial", "sharded", "daemon"} {
		if !strings.Contains(stdout, topo) {
			t.Errorf("list output missing topology %q:\n%s", topo, stdout)
		}
	}
	// The kind lines come straight from the sorted registry, in order —
	// the same golden shape gsumd's -backend list prints.
	var lines []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "  ") {
			lines = append(lines, line)
		}
	}
	kinds := universal.Kinds()
	if !sort.StringsAreSorted(kinds) {
		t.Fatal("Kinds() is not sorted")
	}
	if len(lines) != len(kinds) {
		t.Fatalf("%d kind lines for %d kinds:\n%s", len(lines), len(kinds), stdout)
	}
	for i, k := range kinds {
		want := fmt.Sprintf("  %-12s %s", k, universal.Describe(universal.Kind(k)))
		if lines[i] != want {
			t.Errorf("kind line %d = %q, want %q", i, lines[i], want)
		}
	}
}

// TestBenchConfigFileMatchesFlags: `gsum bench -config spec.json` takes
// the estimator side from the file; a file that pins exactly the
// flag-derived configuration must reproduce the flag run's estimate bit
// for bit (the round trip through ParseSpec changes nothing).
func TestBenchConfigFileMatchesFlags(t *testing.T) {
	extract := func(stdout string) string {
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "estimate ") {
				return strings.Fields(line)[1]
			}
		}
		t.Fatalf("no estimate line in %q", stdout)
		return ""
	}
	args := []string{"bench", "-workload", "zipf", "-n", "4096", "-items", "128", "-len", "10000", "-seed", "3"}
	flagOut, stderr, code := gsum(t, args...)
	if code != 0 {
		t.Fatalf("flag run: exit %d, stderr %q", code, stderr)
	}

	// The Spec a daemon fleet would share: the same configuration the
	// flags above derive (sketch seed = stream seed * 7).
	spec := universal.Spec{
		Kind: universal.KindOnePass, G: "x^2",
		Options: universal.Options{N: 4096, M: 1 << 10, Eps: 0.25, Seed: 21, Lambda: 1.0 / 16},
	}
	blob, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// Contradictory -f and -eps flags prove the file wins.
	fileOut, stderr, code := gsum(t, append(args, "-config", path, "-f", "x^3", "-eps", "0.5")...)
	if code != 0 {
		t.Fatalf("config run: exit %d, stderr %q", code, stderr)
	}
	if fe, we := extract(fileOut), extract(flagOut); fe != we {
		t.Fatalf("config-file estimate %s != flag estimate %s", fe, we)
	}
	if !strings.Contains(fileOut, "g = x^2") {
		t.Errorf("config run did not use the file's function:\n%s", fileOut)
	}

	_, stderr, code = gsum(t, "bench", "-config", filepath.Join(t.TempDir(), "absent.json"))
	if code != 2 {
		t.Fatalf("missing config: exit %d, want 2 (stderr %q)", code, stderr)
	}
}

// TestBenchShardedBackend: the sharded hot path is reachable from the
// CLI and prints the same estimate as serial.
func TestBenchShardedBackend(t *testing.T) {
	extract := func(stdout string) string {
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "estimate ") {
				return strings.Fields(line)[1]
			}
		}
		t.Fatalf("no estimate line in %q", stdout)
		return ""
	}
	args := []string{"bench", "-workload", "zipf", "-n", "4096", "-items", "128", "-len", "10000", "-seed", "3"}
	serialOut, stderr, code := gsum(t, append(args, "-backend", "serial")...)
	if code != 0 {
		t.Fatalf("serial: exit %d, stderr %q", code, stderr)
	}
	shOut, stderr, code := gsum(t, append(args, "-backend", "sharded", "-workers", "4")...)
	if code != 0 {
		t.Fatalf("sharded: exit %d, stderr %q", code, stderr)
	}
	if se, he := extract(serialOut), extract(shOut); se != he {
		t.Fatalf("sharded estimate %s != serial %s", he, se)
	}
	if !strings.Contains(shOut, "backend sharded") {
		t.Errorf("output does not name the sharded backend:\n%s", shOut)
	}
}

func TestBenchUnknownBackendFails(t *testing.T) {
	// Usage errors exit 2, matching unknown -workload and unknown -f.
	// "parallel" was a backend once; no alias maps the old name.
	for _, name := range []string{"bogus", "parallel"} {
		_, stderr, code := gsum(t, "bench", "-backend", name, "-n", "1024", "-items", "64", "-len", "1000")
		if code != 2 {
			t.Fatalf("%s: exit %d, want 2 (stderr %q)", name, code, stderr)
		}
		if !strings.Contains(stderr, "unknown backend") || !strings.Contains(stderr, "daemon") {
			t.Errorf("%s: stderr should name the backend catalog: %q", name, stderr)
		}
	}
}

// TestBenchWindowedRunsOnTwoScenarios: `gsum bench -window` runs end to
// end on two workload scenarios and prints the window line.
func TestBenchWindowedRunsOnTwoScenarios(t *testing.T) {
	for _, w := range []string{"zipf", "bursty"} {
		stdout, stderr, code := gsum(t, "bench", "-workload", w, "-window", "8",
			"-ticks", "32", "-n", "4096", "-items", "128", "-len", "8000", "-seed", "3")
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", w, code, stderr)
		}
		if !strings.Contains(stdout, "window: last 8 of 32 ticks") {
			t.Fatalf("%s: missing window line in output:\n%s", w, stdout)
		}
		if !strings.Contains(stdout, "estimate ") {
			t.Fatalf("%s: missing estimate line:\n%s", w, stdout)
		}
	}
}

// TestBenchWindowedBackendsPrintIdenticalEstimate is the windowed
// backend equality at the CLI level: serial against the daemon topology
// at two worker counts (the sharded backend carries no tick clock).
func TestBenchWindowedBackendsPrintIdenticalEstimate(t *testing.T) {
	extract := func(stdout string) string {
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "estimate ") {
				return strings.Fields(line)[1]
			}
		}
		t.Fatalf("no estimate line in %q", stdout)
		return ""
	}
	args := []string{"bench", "-workload", "zipf", "-window", "6", "-ticks", "24",
		"-n", "4096", "-items", "128", "-len", "8000", "-seed", "3"}
	serialOut, stderr, code := gsum(t, append(args, "-backend", "serial")...)
	if code != 0 {
		t.Fatalf("serial: exit %d, stderr %q", code, stderr)
	}
	for _, workers := range []string{"2", "3"} {
		dmnOut, stderr, code := gsum(t, append(args, "-backend", "daemon", "-workers", workers)...)
		if code != 0 {
			t.Fatalf("daemon x%s: exit %d, stderr %q", workers, code, stderr)
		}
		if se, de := extract(serialOut), extract(dmnOut); se != de {
			t.Fatalf("windowed estimates differ: serial %s, daemon x%s %s", se, workers, de)
		}
	}
}

// TestBenchWindowKReducesStaleness: raising -windowk tightens the
// stale-tick margin (the space/freshness tradeoff the README documents).
func TestBenchWindowKReducesStaleness(t *testing.T) {
	stale := func(k string) string {
		stdout, stderr, code := gsum(t, "bench", "-workload", "zipf", "-window", "6",
			"-ticks", "24", "-n", "4096", "-items", "128", "-len", "8000", "-seed", "3",
			"-windowk", k)
		if code != 0 {
			t.Fatalf("windowk %s: exit %d, stderr %q", k, code, stderr)
		}
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "window: ") {
				return line
			}
		}
		t.Fatalf("no window line in %q", stdout)
		return ""
	}
	k2, k4 := stale("2"), stale("4")
	if !strings.Contains(k2, "2 stale tick(s)") {
		t.Fatalf("windowk 2: unexpected staleness line %q", k2)
	}
	if !strings.Contains(k4, "0 stale tick(s)") {
		t.Fatalf("windowk 4: unexpected staleness line %q", k4)
	}
}

// TestBenchWindowFlagValidation: nonsense window/tick values exit 2.
func TestBenchWindowFlagValidation(t *testing.T) {
	_, stderr, code := gsum(t, "bench", "-window", "-1")
	if code != 2 || !strings.Contains(stderr, "-window") {
		t.Fatalf("exit %d stderr %q, want usage failure", code, stderr)
	}
	if _, _, code := gsum(t, "bench", "-ticks", "0"); code != 2 {
		t.Fatalf("-ticks 0 accepted (exit %d)", code)
	}
}
