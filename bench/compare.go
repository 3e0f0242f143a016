package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadBenchmarkFile finds BENCHMARK.json from bench/ (go run, go test,
// run.sh) or from the repository root.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var data []byte
	var err error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// loadResults reads a -json file and groups its untraced runs by
// workload.
func loadResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareFiles prints one row per workload and end-to-end metric: the
// median over each set's runs, how much worse b is than a as a share of
// a, the bound, and a verdict. A metric whose run-to-run spread (the
// quartile distance over the median, in either set) is wider than its
// bound is unresolved, unless every run of one set beats every run of
// the other; with fewer than four runs a set has no quartiles, and the
// ingest metric falls back to the spread of the passes inside the run.
func compareFiles(w io.Writer, pathA, pathB string) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tspread a\tspread b\tverdict")
	bad := 0
	for _, wl := range bf.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\tmissing (a: %d runs, b: %d runs)\n", wl.Name, len(ra), len(rb))
			bad++
			continue
		}
		for _, m := range bf.EndToEnd {
			xa, xb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(ra, xa, m.Name), spread(rb, xb, m.Name)
			verdict := "ok"
			switch {
			case (sa > m.Bound || sb > m.Bound) && !disjoint(xa, xb):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "WORSE"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%.2f%%\t%.2f%%\t%s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse than their bound or missing", bad)
	}
	return nil
}

// spread is the run-to-run quartile spread of one metric in one set.
func spread(rs []result, xs []float64, name string) float64 {
	if len(xs) >= 4 {
		return quartileSpread(xs)
	}
	if name == "ingest_mupd_per_s" {
		q := rs[0].IngestQuartiles
		return (q[2] - q[0]) / q[1]
	}
	return 0
}

// disjoint reports whether every run of one set reads beyond every run
// of the other, in which case the medians decide despite the spread.
func disjoint(xa, xb []float64) bool {
	return quantile(xa, 1) < quantile(xb, 0) || quantile(xb, 1) < quantile(xa, 0)
}
