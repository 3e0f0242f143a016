package main

import (
	"context"
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/daemon"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestSweepCellMatchesStandaloneDaemon closes the loop between the
// sweep engine and this command: a sweep daemon cell (which spins gsumd
// topologies in-process via internal/daemon) must produce the same
// estimate as a REAL gsumd booted through this command's run() with the
// equivalent flags and fed the identical scenario stream. Passing proves
// the sweep's daemon cells measure the same estimator this binary
// deploys, not a lookalike.
func TestSweepCellMatchesStandaloneDaemon(t *testing.T) {
	cfg, err := sweep.Config{
		Spec:      backend.Spec{G: "x^2"},
		Stream:    workload.Config{N: 1 << 12, Items: 256, Length: 20000, Seed: 3},
		Workloads: []string{"drift"},
		Backends:  []string{"serial", "daemon"},
		Eps:       []float64{0.25},
		PointK:    8,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	serialCell, err := sweep.RunCell(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	daemonCell, err := sweep.RunCell(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if daemonCell.Backend != "daemon" {
		t.Fatalf("cell 1 is %+v, want the daemon cell", daemonCell.Cell)
	}
	if serialCell.Estimate != daemonCell.Estimate {
		t.Fatalf("sweep cells diverge before the daemon comparison: serial %v vs daemon %v",
			serialCell.Estimate, daemonCell.Estimate)
	}

	// The same estimator as a standalone gsumd: flags spelled from the
	// normalized sweep spec.
	o := cfg.Spec.Options
	args := []string{"-addr", "127.0.0.1:0", "-backend", "onepass", "-f", cfg.Spec.G,
		"-n", fmt.Sprint(cfg.Stream.N), "-m", fmt.Sprint(o.M),
		"-eps", fmt.Sprint(cfg.Eps[0]), "-lambda", fmt.Sprint(o.Lambda),
		"-seed", fmt.Sprint(o.Seed)}
	var out, errb syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(args, &out, &errb) }()
	addr := listenAddrOf(t, &out)

	gen, err := cfg.Generator("drift")
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Generate(cfg.Stream)
	c := daemon.NewClient("http://"+addr, nil)
	p, err := c.NewPusher(context.Background(), daemon.PusherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(s.Updates()); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := resp.Value()
	if !ok {
		t.Fatalf("daemon estimate response missing a value: %+v", resp)
	}
	if got != serialCell.Estimate {
		t.Fatalf("standalone gsumd estimate %v != sweep cell estimate %v", got, serialCell.Estimate)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("gsumd did not drain after SIGTERM")
	}
}
