// Package mutants is the mutation ledger: a committed table of one-line
// mutants (table_test.go), each applied on its own to a copy of the
// repository and run against the tests of the packages it names. A row
// is killed when one of the tests it expects fails; a test earns its
// place by killing a row no other test kills. A test is deleted only
// after rows show that every mutant it kills has another killer, and
// those rows stay in the table to keep proving it.
//
// The ledger runs minutes, so only when asked:
//
//	go test ./scripts/mutants -mutants -v              # every row
//	go test ./scripts/mutants -mutants -short -v       # the short rows; every row's staleness
//	go test ./scripts/mutants -mutants -run 'TestMutants/<id>' -v
//
// The tree is copied (git ls-files, untracked files that are not
// ignored included) to one fixed directory under os.TempDir, so the
// build cache keeps hitting from run to run. Rows are applied there one
// at a time and reverted after each; every row runs
// `go test -short -count=1 -json -p 1` over its packages. Before the
// first row, the unmutated copy must pass every row's packages.
//
// It reports the kill matrix (the tests each row fails, the expected ones
// starred), the stale rows, whose old text no longer occurs exactly once,
// and the tests that ran and killed no row. A stale row, a row no
// expected killer kills, a mutant that does not build, and an expected
// killer that is not a test of the row's packages are errors.
package mutants

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"text/tabwriter"
)

var mutants = flag.Bool("mutants", false, "run the mutation ledger (TestMutants): each table row against its packages' tests, minutes")

// mutant is one row of the ledger.
type mutant struct {
	id    string // the subtest name
	group string // the deletions the row proves (see groups)
	// file is the mutated file, a slash path from the repository root; old
	// must occur in it exactly once, and the mutant replaces it with new.
	file, old, new string
	pkgs           []string // go test package patterns, from the root
	// killers are top-level test names (no package) of which at least one
	// must fail on the mutant.
	killers []string
	short   bool // run under -short (at most five rows)
}

// groups orders the report's row counts.
var groups = []string{"pairwise", "parallel", "window", "daemon", "accuracy", "stack", "workload"}

// event is the part of a `go test -json` line the ledger reads.
type event struct {
	Action      string
	Package     string
	Test        string
	Output      string
	FailedBuild string // Go 1.24 on: the package that did not build
}

// run is what one `go test` over a row's packages showed. A package
// that fails with no failing test crashed outside one (a panic on another
// goroutine, say); it counts as a failed "package.(crash)".
type run struct {
	ran    map[string]bool // package.Test for every top-level test that passed or failed
	failed map[string]bool // the ones that failed
	broken []string        // packages that did not build, and why
}

// goTest runs the packages' tests in dir and sorts the results by
// top-level test.
func goTest(dir string, pkgs []string) (run, error) {
	args := append([]string{"test", "-short", "-count=1", "-json", "-p", "1", "-timeout", "5m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return run{}, fmt.Errorf("go test %s: %v", strings.Join(pkgs, " "), err)
	}
	r := run{ran: map[string]bool{}, failed: map[string]bool{}}
	var buildOut strings.Builder
	pkgFailed, testFailed, unbuilt := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, line := range bytes.Split(out, []byte("\n")) {
		var ev event
		if !bytes.HasPrefix(line, []byte("{")) || json.Unmarshal(line, &ev) != nil {
			continue
		}
		if ev.FailedBuild != "" || strings.Contains(ev.Output, "[build failed]") || strings.Contains(ev.Output, "[setup failed]") {
			unbuilt[ev.Package] = true
		}
		if ev.Action == "build-output" {
			buildOut.WriteString(ev.Output)
		}
		if ev.Action != "pass" && ev.Action != "fail" {
			continue
		}
		if ev.Test == "" {
			pkgFailed[ev.Package] = ev.Action == "fail"
			continue
		}
		name := ev.Package + "." + strings.SplitN(ev.Test, "/", 2)[0]
		r.ran[name] = true
		if ev.Action == "fail" {
			r.failed[name] = true
			testFailed[ev.Package] = true
		}
	}
	for pkg, failed := range pkgFailed {
		switch {
		case unbuilt[pkg]:
			r.broken = append(r.broken, pkg)
		case failed && !testFailed[pkg]:
			r.ran[pkg+".(crash)"] = true
			r.failed[pkg+".(crash)"] = true
		}
	}
	if len(pkgFailed) == 0 {
		return run{}, fmt.Errorf("go test %s reported no package: %s", strings.Join(pkgs, " "), stderr.Bytes())
	}
	if len(r.broken) > 0 {
		sort.Strings(r.broken)
		r.broken = append(r.broken, "\n"+strings.TrimSpace(buildOut.String()+stderr.String()))
	}
	return r, nil
}

// testName strips the package from a package.Test name.
func testName(qualified string) string { return qualified[strings.LastIndex(qualified, ".")+1:] }

// copyTree copies the files git knows of (tracked, or untracked and not
// ignored) from root into dir, which it empties first.
func copyTree(root, dir string) error {
	cmd := exec.Command("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	cmd.Dir = root
	list, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("git ls-files: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	for _, name := range strings.Split(strings.TrimRight(string(list), "\x00"), "\x00") {
		src := filepath.Join(root, filepath.FromSlash(name))
		info, err := os.Lstat(src)
		if errors.Is(err, os.ErrNotExist) {
			continue // deleted in the working tree, not yet in the index
		}
		if err != nil {
			return err
		}
		if !info.Mode().IsRegular() {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(dst, data, info.Mode().Perm()); err != nil {
			return err
		}
	}
	return nil
}

// TestMutants runs the ledger: every row of table (the short ones under
// -short) against its packages, on a copy of the tree. Every row is
// checked for staleness, short or not.
func TestMutants(t *testing.T) {
	if !*mutants {
		t.Skip("the mutation ledger runs each row's packages against its mutant, minutes; pass -mutants")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(os.TempDir(), "repro-mutants")
	if err := copyTree(root, work); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(work) })

	var rows, stale []mutant
	seen := map[string]bool{}
	for _, m := range table {
		if seen[m.id] {
			t.Fatalf("two rows are named %s", m.id)
		}
		seen[m.id] = true
		src, err := os.ReadFile(filepath.Join(work, filepath.FromSlash(m.file)))
		if n := bytes.Count(src, []byte(m.old)); err != nil || n != 1 {
			t.Errorf("stale row %s: %q occurs %d times in %s (%v)", m.id, m.old, n, m.file, err)
			stale = append(stale, m)
		} else if m.short || !testing.Short() {
			rows = append(rows, m)
		}
	}

	pkgSet := map[string]bool{}
	for _, m := range rows {
		for _, p := range m.pkgs {
			pkgSet[p] = true
		}
	}
	base, err := goTest(work, keys(pkgSet))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.failed) > 0 || len(base.broken) > 0 {
		t.Fatalf("the unmutated tree fails %v (packages that do not build: %v); no row can be judged", keys(base.failed), base.broken)
	}
	baseNames := map[string]bool{}
	for q := range base.ran {
		baseNames[testName(q)] = true
	}

	kills := map[string][]string{} // row id -> failing package.Test, for the rows run
	killedSome := map[string]bool{}
	for _, m := range rows {
		m := m
		t.Run(m.id, func(t *testing.T) {
			for _, k := range m.killers {
				if !baseNames[k] {
					t.Errorf("expected killer %s is not a test of %v", k, m.pkgs)
				}
			}
			path := filepath.Join(work, filepath.FromSlash(m.file))
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, bytes.Replace(orig, []byte(m.old), []byte(m.new), 1), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatalf("reverting %s: %v", m.file, err)
				}
			}()
			r, err := goTest(work, m.pkgs)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.broken) > 0 {
				kills[m.id] = []string{"(does not build)"}
				t.Fatalf("%s: the mutant does not build: %v", m.file, r.broken)
			}
			kills[m.id] = keys(r.failed)
			expected := false
			for q := range r.failed {
				killedSome[q] = true
				for _, k := range m.killers {
					expected = expected || testName(q) == k
				}
			}
			if !expected {
				t.Errorf("survived its expected killers %v: %s %q -> %q (failing: %v)", m.killers, m.file, m.old, m.new, kills[m.id])
			}
		})
	}

	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "row\tgroup\tkilled by (* expected)")
	count := map[string]int{}
	for _, m := range rows {
		if _, ok := kills[m.id]; !ok {
			continue // not selected by -run
		}
		count[m.group]++
		var names []string
		for _, q := range kills[m.id] {
			star := ""
			for _, k := range m.killers {
				if testName(q) == k {
					star = "*"
				}
			}
			names = append(names, star+strings.TrimPrefix(q, "repro/"))
		}
		if len(names) == 0 {
			names = []string{"SURVIVED"}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", m.id, m.group, strings.Join(names, " "))
	}
	tw.Flush()
	fmt.Fprintf(&b, "\nrows run: %d", len(kills))
	for _, g := range groups {
		fmt.Fprintf(&b, ", %s %d", g, count[g])
	}
	fmt.Fprintf(&b, " (pairwise and parallel together: %d)\n", count["pairwise"]+count["parallel"])
	fmt.Fprintf(&b, "stale rows: %d", len(stale))
	for _, m := range stale {
		fmt.Fprintf(&b, " %s", m.id)
	}
	var idle []string
	for q := range base.ran {
		if !killedSome[q] {
			idle = append(idle, strings.TrimPrefix(q, "repro/"))
		}
	}
	sort.Strings(idle)
	fmt.Fprintf(&b, "\ntests that ran and killed no row: %d of %d\n", len(idle), len(base.ran))
	for _, q := range idle {
		fmt.Fprintf(&b, "  %s\n", q)
	}
	t.Log("\n" + b.String())
}

// keys returns a set's members in order.
func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
