// Command bench is the repository's benchmark: four workloads measured
// from outside, through the doors users use. An untraced run yields the
// end-to-end metrics named in ../BENCHMARK.json; a traced run replays the
// workload's stream through each layer's public door and yields the
// per-layer metrics and a span file. README.md has the tables.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// host says where a result was measured; every result carries one.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func thisHost() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: os.Getenv("BENCH_COMMIT")} // run.sh exports BENCH_COMMIT
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runTraced is the traced run behind every per-layer metric: a short
// untraced stretch of the workload itself (what the ladder must add up
// to, and what the process spends per update), then the ladder and the
// read paths on the same streams, with spans.
func runTraced(w workloadDef, sc scale, seed uint64, seconds int) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: true, Host: thisHost(),
		Metrics: map[string]metric{}, Samples: map[string]int{}}
	tr := newTracer()
	root := tr.begin(w.name, 0)
	id := tr.begin("setup", root)
	fx, err := setUp(w, sc, seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	o := &ops{}
	id = tr.begin("end_to_end.untraced", root)
	t := runPasses(w, fx, time.Duration(seconds)*time.Second/4, o)
	var lat []float64
	if w.mixed {
		lat = t.reader.estimateMs
	} else {
		lat, _ = sampleEstimates(fx.sub, sc.estimates, o)
	}
	tr.end(id)
	o.did("close", fx.close())

	// One timed pair per rung fits the ladder into about the time of an
	// untraced run; longer runs buy a steadier ladder.
	pairs := seconds / 15
	if pairs < 1 {
		pairs = 1
	}
	if pairs > 4 {
		pairs = 4
	}
	lt, err := runLadder(tr, root, &fx.streams, pairs, sc.reads)
	if err != nil {
		return nil, err
	}
	tr.end(root)

	ns := lt.nsUpd
	for _, name := range []string{"xhash.eval", "sketch.update", "heavy.update", "recursive.update",
		"core.update", "backend.update", "daemon.apply", "wire.encode", "wire.decode", "daemon.stream", "daemon.mixed"} {
		res.set(name+"_ns_per_upd", ns[name], "ns/upd")
	}
	self := map[string]float64{
		"xhash.self":            ns["xhash.eval"],
		"sketch.self":           ns["sketch.update"] - ns["xhash.eval"],
		"heavy.self":            ns["heavy.update"] - ns["sketch.update"],
		"recursive.self":        ns["recursive.update"] - ns["heavy.update"],
		"core.self":             ns["core.update"] - ns["recursive.update"],
		"backend.self":          ns["backend.update"] - ns["core.update"],
		"daemon.apply_self":     ns["daemon.apply"] - ns["backend.update"],
		"wire.self":             ns["wire.encode"] + ns["wire.decode"],
		"daemon.transport_self": ns["daemon.stream"] - ns["daemon.apply"] - ns["wire.encode"] - ns["wire.decode"],
		"daemon.readers_self":   ns["daemon.mixed"] - ns["daemon.stream"],
	}
	for name, v := range self {
		res.set(name+"_ns_per_upd", v, "ns/upd")
	}
	res.set("hotpath.process_ns_per_upd", ns["hotpath.process"], "ns/upd")
	res.set("hotpath.route_ns_per_upd", ns["hotpath.route"], "ns/upd")
	res.set("hotpath.speedup", ns["backend.update"]/ns["hotpath.process"], "x")
	for name, m := range lt.m {
		res.set(name, m.Value, m.Unit)
	}
	for name, n := range lt.n {
		res.Samples[name] = n
	}
	res.set("workload.distinct_items", float64(fx.distinct), "count")
	res.set("workload.dup_ratio", fx.dupRatio, "ratio")
	res.set("workload.gen_ms", ms(fx.genTime), "ms")

	// The workload's own estimate latency, tail included: one instance,
	// one stretch, so it is reported here and not gated.
	res.set("workload.estimate_p50_ms", median(lat), "ms")
	res.set("workload.estimate_p90_ms", quantile(lat, 0.9), "ms")
	res.Samples["workload.estimate_p90_ms"] = len(lat)
	upd := float64(t.updates)
	res.set("process.cpu_ns_per_upd", float64(t.cpu.Nanoseconds())/upd, "ns/upd")
	res.set("process.allocs_per_kupd", float64(t.mallocs)/upd*1e3, "1/kupd")
	res.set("process.alloc_b_per_upd", float64(t.allocB)/upd, "B/upd")
	res.set("process.gc_cycles", float64(t.gcCycles), "count")

	// The rung that is this workload's own door, traced, against the
	// workload untraced; and how much of the untraced cost per update
	// the selfs along the workload's path leave unexplained.
	untraced := float64(t.wall.Nanoseconds()) / upd
	res.set("trace.overhead_pct", 100*(ns[w.door]-untraced)/untraced, "%")
	res.set("ladder.residual_pct", 100*math.Abs(untraced-ns[w.door])/untraced, "%")
	res.Passes = 2 * len(t.pairMupd)
	res.IngestQuartiles = [3]float64{quantile(t.pairMupd, 0.25), median(t.pairMupd), quantile(t.pairMupd, 0.75)}
	res.Attempted, res.Failed, res.Failures = o.attempted, len(o.failures), o.failures

	if err := tr.write(filepath.Join(outDir, "spans-"+w.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// report prints every metric by name with its unit, then the one-line
// JSON object the benchmark contract asks for as the last line.
func report(res *result) error {
	h := res.Host
	fmt.Printf("== %s  seed=%d  passes=%d  trace=%v\n", res.Workload, res.Seed, res.Passes, res.Trace)
	fmt.Printf("   host: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("   %-34s %14.6g %s", name, m.Value, m.Unit)
		if n, ok := res.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	q := res.IngestQuartiles
	fmt.Printf("   ingest quartiles over %d pairs: %.4g / %.4g / %.4g Mupd/s\n", res.Passes/2, q[0], q[1], q[2])
	for i, rr := range res.Rounds {
		fmt.Printf("   round %d: setup %.3f s, %d pairs at %.4g Mupd/s (%.4g by the wall clock), %d estimates p50 %.3f p90 %.3f ms, %.1f%% of CPU time stolen\n",
			i+1, rr.SetupS, len(rr.PairMupd), rr.IngestMupd, rr.IngestWallMupd, rr.Estimates, rr.P50Ms, rr.P90Ms, 100*rr.StolenShare)
	}
	if !res.Trace {
		fmt.Printf("   ingest by the wall clock, stolen time included: %.6g Mupd/s\n", res.IngestWallMupd)
		fmt.Printf("   estimate_p50_ms %.6g, estimate_p90_ms %.6g (medians of the rounds; reported, not gated)\n", res.EstimateP50Ms, res.EstimateP90Ms)
		fmt.Printf("   rel_err %.6g (eps %g); bit-identical to the serial reference: %v\n", res.RelErr, sketchOptions.Eps, res.RefIdentical)
	}
	fmt.Printf("   failed_ratio %d/%d\n", res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Println("   FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// appendJSON adds res as one line to path, so a file collects a set of
// runs for -compare.
func appendJSON(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Uint64("seed", 1, "seed of the workload generator")
	seconds := fs.Int("seconds", 15, "how long the timed passes run")
	trace := fs.Int("trace", 0, "1: traced run (per-layer metrics, out/spans-<workload>.json); a bare -trace means 1")
	jsonPath := fs.String("json", "", "append each result to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two -json files against the bounds in BENCHMARK.json: -compare a.json b.json")
	if err := fs.Parse(bareTrace(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		if err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	todo := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workloadDef{w}
	}
	if *seconds < 1 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, and there are no positional arguments")
		return 2
	}
	code := 0
	for _, w := range todo {
		runOne := runEndToEnd
		if *trace != 0 {
			runOne = runTraced
		}
		res, err := runOne(w, fullScale, *seed, *seconds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if *jsonPath != "" {
			if err := appendJSON(*jsonPath, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if err := report(res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if res.Failed > 0 {
			code = 1
		}
	}
	return code
}

// bareTrace lets `-trace` stand alone as the issue writes it, while the
// driver's `--trace 0|1` still parses: a -trace not followed by 0 or 1
// gets a 1.
func bareTrace(args []string) []string {
	var out []string
	for i, a := range args {
		out = append(out, a)
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
			out = append(out, "1")
		}
	}
	return out
}
