package soak

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/backend"
)

// soakDuration resolves the workload duration: the CI short mode keeps
// it to a fraction of a second, the nightly job sets SOAK_DURATION
// (e.g. "2m") for the long run.
func soakDuration(t *testing.T) time.Duration {
	if env := os.Getenv("SOAK_DURATION"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("SOAK_DURATION: %v", err)
		}
		return d
	}
	if testing.Short() {
		return 300 * time.Millisecond
	}
	return time.Second
}

// writeArtifacts persists the final scrapes when SOAK_ARTIFACT_DIR is
// set (the nightly job uploads that directory).
func writeArtifacts(t *testing.T, prefix string, rep *Report) {
	dir := os.Getenv("SOAK_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, raw := range rep.FinalScrapes {
		if err := os.WriteFile(filepath.Join(dir, prefix+"-"+name+".prom"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func runSoak(t *testing.T, cfg Config) *Report {
	t.Helper()
	cfg.Duration = soakDuration(t)
	cfg.Logf = t.Logf
	before := runtime.NumGoroutine()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Goroutine stability: the topology is fully shut down inside Run's
	// defers only after it returns, so give the drains a moment, then
	// require the count to settle near the baseline — a leaked stream
	// loop or membership ticker shows up here.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+10 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+10 {
		t.Errorf("goroutines grew %d -> %d over the soak", before, now)
	}
	if rep.Rounds < MinRounds {
		t.Errorf("only %d rounds ran", rep.Rounds)
	}
	if rep.Scrapes == 0 {
		t.Error("no mid-soak scrapes happened")
	}
	if rep.Estimate != rep.SerialEstimate {
		t.Errorf("estimate %v != serial %v", rep.Estimate, rep.SerialEstimate)
	}
	t.Logf("soak: %d rounds, %d updates, %d scrapes, estimate %v (serial-identical)",
		rep.Rounds, rep.Updates, rep.Scrapes, rep.Estimate)
	return rep
}

// TestSoakFlat is the headline soak: 2 streaming workers and a
// coordinator under sustained flat load, all invariants asserted from
// /metrics scrapes, final estimate bit-identical to serial.
func TestSoakFlat(t *testing.T) {
	rep := runSoak(t, Config{Workers: 2, Seed: 7})
	writeArtifacts(t, "flat", rep)
}

// TestSoakWindowed runs the same topology on the window kind with the
// tick advancing every round.
func TestSoakWindowed(t *testing.T) {
	rep := runSoak(t, Config{Workers: 2, Windowed: true, Seed: 11})
	writeArtifacts(t, "windowed", rep)
}

// TestSoakSharded runs the daemons on the sharded kind.
// The serial ground-truth replay inside Run uses the PLAIN onepass kind,
// so a pass asserts the cross-kind contract end to end: sharded daemons,
// snapshot/merge over HTTP, and one serial estimator all land on the
// same bits.
func TestSoakSharded(t *testing.T) {
	rep := runSoak(t, Config{Workers: 2, Kind: backend.KindSharded, Seed: 17})
	writeArtifacts(t, "sharded", rep)
}

// TestSoakManyWorkers widens the topology past the CI default so the
// aggregate invariants hold with more than two snapshot sources; kept
// brief outside the nightly run.
func TestSoakManyWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the 2-worker soaks cover the invariants")
	}
	rep := runSoak(t, Config{Workers: 4, Seed: 13})
	writeArtifacts(t, "wide", rep)
}
