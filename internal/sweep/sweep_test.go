package sweep

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden sweep files")

// TestMain doubles as the sweep worker: when SWEEP_TEST_WORKER is set
// the test binary behaves like `gsum sweep -cell N` (run one cell, write
// its JSON, exit), which is how the fan-out tests get real worker
// processes without needing a built gsum binary. SWEEP_CRASH simulates a
// worker dying before it reports.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_TEST_WORKER") == "1" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

func workerMain() int {
	if crash := os.Getenv("SWEEP_CRASH"); crash != "" && crash == os.Getenv("SWEEP_CELL") {
		fmt.Fprintln(os.Stderr, "sweep test worker: injected crash")
		return 1
	}
	idx, err := strconv.Atoi(os.Getenv("SWEEP_CELL"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep test worker: bad SWEEP_CELL:", err)
		return 1
	}
	cfg, err := ParseConfigFile(os.Getenv("SWEEP_CONFIG"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res, err := RunCell(cfg, idx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := WriteCellResult(os.Getenv("SWEEP_OUT"), res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// testLauncher self-execs the test binary in worker mode; crash names
// the cell index (as a string) whose worker exits before writing, "" for
// none.
func testLauncher(cfgPath, out, crash string) Launcher {
	return func(i int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"SWEEP_TEST_WORKER=1",
			"SWEEP_CELL="+strconv.Itoa(i),
			"SWEEP_CONFIG="+cfgPath,
			"SWEEP_OUT="+out,
			"SWEEP_CRASH="+crash,
		)
		return cmd
	}
}

func writeConfig(t *testing.T, dir string, cfg Config) string {
	t.Helper()
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// goldenConfig is the committed two-cell sweep: a benign and an
// adversarial scenario through the serial backend.
func goldenConfig() Config {
	return Config{
		Spec:      backend.Spec{G: "x^2"},
		Stream:    workload.Config{N: 1 << 16, Items: 512, Length: 20000, Seed: 1},
		Workloads: []string{"zipf", "adversarial"},
		Backends:  []string{"serial"},
		Eps:       []float64{0.25},
		PointK:    8,
	}
}

// TestConfigNormalize: every bad axis is rejected with an error naming
// it, and defaults resolve the documented way.
func TestConfigNormalize(t *testing.T) {
	good := goldenConfig()
	n, err := good.Normalize()
	if err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if n.Spec.Options.Seed != 7 || n.Spec.Options.M != 1<<10 || n.PointK != 8 {
		t.Fatalf("defaults not resolved: %+v", n.Spec.Options)
	}
	if len(n.Workers) != 1 || n.Workers[0] != 1 {
		t.Fatalf("workers default not resolved: %v", n.Workers)
	}
	cases := []struct {
		name string
		mut  func(c Config) Config
		want string
	}{
		{"zero stream items", func(c Config) Config { c.Stream.Items = -1; return c }, "Items"},
		{"no workloads", func(c Config) Config { c.Workloads = nil; return c }, "workloads"},
		{"unknown workload", func(c Config) Config { c.Workloads = []string{"nope"}; return c }, "unknown workload"},
		{"bad alpha", func(c Config) Config { c.Alpha = -2; return c }, "alpha"},
		{"no backends", func(c Config) Config { c.Backends = nil; return c }, "backends"},
		{"unknown backend", func(c Config) Config { c.Backends = []string{"quantum"}; return c }, "unknown backend"},
		{"removed parallel backend", func(c Config) Config { c.Backends = []string{"serial", "parallel"}; return c }, "unknown backend"},
		{"no eps", func(c Config) Config { c.Eps = nil; return c }, "eps"},
		{"eps out of range", func(c Config) Config { c.Eps = []float64{1.5}; return c }, "eps"},
		{"negative workers", func(c Config) Config { c.Workers = []int{-1}; return c }, "workers"},
		{"negative procs", func(c Config) Config { c.Procs = -1; return c }, "procs"},
		{"foreign kind", func(c Config) Config { c.Spec.Kind = backend.KindHeavy; return c }, "kind"},
		{"no g", func(c Config) Config { c.Spec.G = ""; return c }, "spec.g"},
		{"unknown g", func(c Config) Config { c.Spec.G = "x^9000"; return c }, "catalog"},
		{"bad trace", func(c Config) Config {
			c.Workloads = []string{"trace"}
			c.Trace = filepath.Join(t.TempDir(), "missing.csv")
			return c
		}, "trace"},
		{"window too long", func(c Config) Config {
			c.Spec.Window.W = 99
			c.Stream.Ticks = 10
			return c
		}, "window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.mut(good).Normalize()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCellsDeterministic: the cell list is a pure function of the
// normalized config, and every index matches its position.
func TestCellsDeterministic(t *testing.T) {
	cfg := goldenConfig()
	cfg.Backends = []string{"serial", "sharded", "daemon"}
	cfg.Eps = []float64{0.25, 0.5}
	cfg.Workers = []int{1, 2}
	n, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	a, b := n.Cells(), n.Cells()
	// 2 workloads x 3 backends x 2 eps x 2 workers.
	if want := 2 * 3 * 2 * 2; len(a) != want {
		t.Fatalf("got %d cells, want %d", len(a), want)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs across enumerations: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Index != i {
			t.Fatalf("cell %d carries index %d", i, a[i].Index)
		}
	}
}

// runCellsInProcess executes every cell of the matrix in this process
// and writes the results into dir.
func runCellsInProcess(t *testing.T, cfg Config, dir string) {
	t.Helper()
	n, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range n.Cells() {
		res, err := RunCell(n, cell.Index)
		if err != nil {
			t.Fatalf("cell %d: %v", cell.Index, err)
		}
		if err := WriteCellResult(dir, res); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenReport pins the sweep's two artifacts byte for byte: the
// markdown report and the merged JSON of the committed two-cell sweep
// must equal the golden files. `go test ./internal/sweep -run Golden
// -update` rewrites them after an intentional change.
func TestGoldenReport(t *testing.T) {
	cfg := goldenConfig()
	dir := t.TempDir()
	runCellsInProcess(t, cfg, dir)
	m, err := MergeDir(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Fatalf("golden sweep incomplete: %v", m.Missing)
	}
	var report bytes.Buffer
	if err := Report(&report, cfg, m, false); err != nil {
		t.Fatal(err)
	}
	mergedPath := filepath.Join(t.TempDir(), "merged.json")
	if err := WriteMerged(mergedPath, m, false); err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}

	goldenReport := filepath.Join("testdata", "golden_report.md")
	goldenMerged := filepath.Join("testdata", "golden_merged.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReport, report.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMerged, merged, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantReport, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden files)", err)
	}
	if !bytes.Equal(report.Bytes(), wantReport) {
		t.Errorf("report drifted from %s (rerun with -update if intentional):\n--- got ---\n%s", goldenReport, report.String())
	}
	wantMerged, err := os.ReadFile(goldenMerged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, wantMerged) {
		t.Errorf("merged JSON drifted from %s (rerun with -update if intentional):\n--- got ---\n%s", goldenMerged, merged)
	}
}

// TestAdversarialCellDegradesPointQueries: in the merged golden sweep,
// the adversarial cell's point-query error dwarfs the benign zipf
// cell's while its g-SUM equality metrics stay healthy — the contrast
// the report exists to document.
func TestAdversarialCellDegradesPointQueries(t *testing.T) {
	cfg := goldenConfig()
	dir := t.TempDir()
	runCellsInProcess(t, cfg, dir)
	m, err := MergeDir(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	byWorkload := map[string]CellResult{}
	for _, c := range m.Cells {
		byWorkload[c.Workload] = c
	}
	zipf, adv := byWorkload["zipf"], byWorkload["adversarial"]
	if adv.PointMaxErr < 4*zipf.PointMaxErr || adv.PointMaxErr < 0.5 {
		t.Fatalf("attack not visible in the sweep: adversarial pt max err %v vs zipf %v",
			adv.PointMaxErr, zipf.PointMaxErr)
	}
}

// TestRunFansOutProcesses: the full fan-out across real worker
// processes completes the smoke matrix, and a rerun into a fresh
// directory produces a byte-identical report — determinism across
// process boundaries, not just within one. Each size keeps its contract:
// the cells within tracker capacity agree on the estimate bit for bit,
// the ones past it on the counters digest, each estimate within eps.
func TestRunFansOutProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := Smoke()
	base := t.TempDir()
	cfgPath := writeConfig(t, base, cfg)

	var cells []CellResult
	render := func(dir string) string {
		res, err := Run(cfg, dir, testLauncher(cfgPath, dir, ""))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failed) > 0 {
			t.Fatalf("workers failed: %v", res.Failed)
		}
		if !res.Merged.Complete() {
			t.Fatalf("missing cells: %v", res.Merged.Missing)
		}
		cells = res.Merged.Cells
		var buf bytes.Buffer
		if err := Report(&buf, cfg, res.Merged, false); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render(filepath.Join(base, "run1"))
	second := render(filepath.Join(base, "run2"))
	if first != second {
		t.Errorf("reports differ across reruns:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "| yes |") || strings.Contains(first, "DIVERGED") {
		t.Errorf("equality section did not verify:\n%s", first)
	}

	type group struct {
		workload string
		items    int
	}
	first0 := map[group]CellResult{}
	var within, past int
	for _, c := range cells {
		g := group{c.Workload, c.Items}
		ref, seen := first0[g]
		if !seen {
			first0[g] = c
			ref = c
		}
		if c.Counters == "" || c.Counters != ref.Counters {
			t.Errorf("%s: counters %q, %s's %q", c.ID, c.Counters, ref.ID, ref.Counters)
		}
		if c.Distinct <= c.Tracker {
			within++
			if c.Estimate != ref.Estimate {
				t.Errorf("%s: estimate %v, %s's %v: within tracker capacity (%d of %d)",
					c.ID, c.Estimate, ref.ID, ref.Estimate, c.Distinct, c.Tracker)
			}
		} else {
			past++
			if !(c.RelErr <= c.Eps) {
				t.Errorf("%s: rel err %v past eps %v", c.ID, c.RelErr, c.Eps)
			}
		}
	}
	if within == 0 || past == 0 {
		t.Errorf("smoke matrix has %d cells within tracker capacity and %d past it, want both", within, past)
	}
}

// TestCrashedWorkerReported: killing one worker mid-sweep must surface
// in all three places — the launch failures, the merge's Missing list
// (by cell ID), and the report's missing-cells section — while every
// other cell still reports.
func TestCrashedWorkerReported(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := Smoke()
	base := t.TempDir()
	cfgPath := writeConfig(t, base, cfg)
	dir := filepath.Join(base, "out")

	const crashIndex = 1
	res, err := Run(cfg, dir, testLauncher(cfgPath, dir, strconv.Itoa(crashIndex)))
	if err != nil {
		t.Fatal(err)
	}
	crashed := cfg.Cells()[crashIndex]
	if len(res.Failed) != 1 || !strings.Contains(res.Failed[0], crashed.ID()) {
		t.Fatalf("failures %v do not name the crashed cell %q", res.Failed, crashed.ID())
	}
	if res.Merged.Complete() {
		t.Fatal("merge claims completeness despite a dead worker")
	}
	if len(res.Merged.Missing) != 1 || !strings.Contains(res.Merged.Missing[0], crashed.ID()) {
		t.Fatalf("missing %v does not name the crashed cell %q", res.Merged.Missing, crashed.ID())
	}
	if got := len(res.Merged.Cells); got != res.Merged.Total-1 {
		t.Fatalf("%d of %d cells survived, want all but one", got, res.Merged.Total)
	}
	var buf bytes.Buffer
	if err := Report(&buf, cfg, res.Merged, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), crashed.ID()) || strings.Contains(buf.String(), "(none — every cell reported)") {
		t.Errorf("report does not surface the missing cell:\n%s", buf.String())
	}
}

// TestTimingOptIn: the default artifacts carry no wall-clock numbers;
// -timing adds the throughput section and per-cell timing JSON.
func TestTimingOptIn(t *testing.T) {
	cfg := goldenConfig()
	dir := t.TempDir()
	runCellsInProcess(t, cfg, dir)
	m, err := MergeDir(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cells {
		if c.ElapsedNS <= 0 || c.UpdatesPerSec <= 0 {
			t.Fatalf("per-cell file lost its timing: %+v", c.Cell)
		}
	}
	for _, c := range m.Deterministic().Cells {
		if c.ElapsedNS != 0 || c.UpdatesPerSec != 0 {
			t.Fatalf("Deterministic left timing behind: %+v", c.Cell)
		}
	}
	var plain, timed bytes.Buffer
	if err := Report(&plain, cfg, m, false); err != nil {
		t.Fatal(err)
	}
	if err := Report(&timed, cfg, m, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "Throughput") {
		t.Error("default report includes the wall-clock section")
	}
	if !strings.Contains(timed.String(), "Throughput") {
		t.Error("-timing report lacks the wall-clock section")
	}
}

// TestReportCountersVerdict: a group whose estimates differ passes as
// `counters` only when every cell overflowed its trackers, all share one
// counters digest and every estimate is within eps of exact; otherwise it
// diverged.
func TestReportCountersVerdict(t *testing.T) {
	cfg := goldenConfig()
	cfg.Backends = []string{"serial", "sharded"}
	cell := func(i int, backend string, est float64, distinct int, counters string) CellResult {
		return CellResult{
			Cell:     Cell{Index: i, Workload: "zipf", Backend: backend, Eps: 0.25, Workers: 1},
			Distinct: distinct, Exact: 100, Estimate: est, RelErr: math.Abs(est-100) / 100,
			Counters: counters, Tracker: 385,
		}
	}
	for _, tc := range []struct {
		name string
		a, b CellResult
		want string
	}{
		{"equal estimates", cell(0, "serial", 101, 512, "aa"), cell(1, "sharded", 101, 512, "bb"), "| yes |"},
		{"past capacity, equal counters", cell(0, "serial", 101, 512, "aa"), cell(1, "sharded", 102, 512, "aa"), "| counters |"},
		{"past capacity, other counters", cell(0, "serial", 101, 512, "aa"), cell(1, "sharded", 102, 512, "bb"), "DIVERGED"},
		{"past capacity, past eps", cell(0, "serial", 101, 512, "aa"), cell(1, "sharded", 130, 512, "aa"), "DIVERGED"},
		{"within capacity", cell(0, "serial", 101, 256, "aa"), cell(1, "sharded", 102, 256, "aa"), "DIVERGED"},
	} {
		m := Merged{Total: 2, Cells: []CellResult{tc.a, tc.b}}
		var buf bytes.Buffer
		if err := Report(&buf, cfg, m, false); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.want, buf.String())
		}
	}
}
