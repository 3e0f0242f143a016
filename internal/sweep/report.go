package sweep

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Report renders the merged sweep as markdown: the matrix header, the
// per-cell accuracy table, a cross-backend equality section (the CI-able
// face of the serial == sharded == daemon contract), and the missing
// cells. Every number in the default report is deterministic given the
// Config, so two runs of the same sweep render byte-identical reports;
// timing=true appends the wall-clock throughput table, which is
// explicitly NOT deterministic.
func Report(w io.Writer, cfg Config, m Merged, timing bool) error {
	cfg, err := cfg.Normalize()
	if err != nil {
		return err
	}
	if !timing {
		m = m.Deterministic()
	}
	fmt.Fprintln(w, "# gsum sweep report")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "- matrix: workloads [%s] x backends [%s]", strings.Join(cfg.Workloads, " "), strings.Join(cfg.Backends, " "))
	fmt.Fprintf(w, " x eps [%s] x workers [%s] = %d cells\n", joinFloats(cfg.Eps), joinInts(cfg.Workers), m.Total)
	fmt.Fprintf(w, "- stream: n=%d items=%d length=%d seed=%d", cfg.Stream.N, cfg.Stream.Items, cfg.Stream.Length, cfg.Stream.Seed)
	if cfg.Stream.Ticks > 0 {
		fmt.Fprintf(w, " ticks=%d", cfg.Stream.Ticks)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "- estimator: g=%s m=%d lambda=%s seed=%d", cfg.Spec.G, cfg.Spec.Options.M, fmtG(cfg.Spec.Options.Lambda), cfg.Spec.Options.Seed)
	if cfg.Spec.Window.W > 0 {
		fmt.Fprintf(w, " window=%d ticks", cfg.Spec.Window.W)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "- point queries: top %d true items vs a CountSketch drawn from seed %d\n", cfg.PointK, cfg.Spec.Options.Seed)
	fmt.Fprintf(w, "- collected: %d/%d cells\n", len(m.Cells), m.Total)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "## Accuracy")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| # | workload | backend | eps | w | updates | distinct | exact | estimate | rel err | pt mean err | pt max err | bytes |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, c := range m.Cells {
		fmt.Fprintf(w, "| %d | %s | %s | %s | %d | %d | %d | %s | %s | %s | %s | %s | %d |\n",
			c.Index, c.Workload, c.Backend, fmtG(c.Eps), c.Workers, c.Updates, c.Distinct,
			fmtG(c.Exact), fmtG(c.Estimate), fmtG(c.RelErr), fmtG(c.PointMeanErr), fmtG(c.PointMaxErr), c.Space)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "## Cross-backend equality")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Cells sharing (workload, eps) differ only in ingestion topology; the")
	fmt.Fprintln(w, "seed-discipline + linearity contract says their counters are bit-identical,")
	fmt.Fprintln(w, "and their estimates too while the trackers hold every item.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | eps | cells | estimates | equal |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	type groupKey struct {
		scenario string
		eps      float64
	}
	groups := make(map[groupKey][]CellResult)
	var order []groupKey
	for _, c := range m.Cells {
		k := groupKey{c.scenario(), c.Eps}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	allEqual, byCounters := true, false
	for _, k := range order {
		cs := groups[k]
		distinct := []string{}
		seen := map[float64]bool{}
		for _, c := range cs {
			if !seen[c.Estimate] {
				seen[c.Estimate] = true
				distinct = append(distinct, fmtG(c.Estimate))
			}
		}
		verdict := "yes"
		switch {
		case len(distinct) == 1:
		case countersHold(cs):
			verdict = "counters"
			byCounters = true
		default:
			verdict = "DIVERGED"
			allEqual = false
		}
		fmt.Fprintf(w, "| %s | %s | %d | %s | %s |\n", k.scenario, fmtG(k.eps), len(cs), strings.Join(distinct, ", "), verdict)
	}
	if byCounters {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "`counters`: the group's streams have more distinct items than a level's")
		fmt.Fprintln(w, "tracker holds, so which candidates survive depends on how the stream was")
		fmt.Fprintln(w, "cut. Its cells hold equal counters (by linearity) and every estimate is")
		fmt.Fprintln(w, "within eps of exact.")
	}
	if !allEqual {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "**WARNING: at least one group diverged — the equality contract is broken.**")
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "## Missing cells")
	fmt.Fprintln(w)
	if m.Complete() {
		fmt.Fprintln(w, "(none — every cell reported)")
	} else {
		for _, miss := range m.Missing {
			fmt.Fprintf(w, "- %s\n", miss)
		}
	}

	if timing {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "## Throughput (wall clock — not deterministic)")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| # | cell | updates/s | elapsed |")
		fmt.Fprintln(w, "|---|---|---|---|")
		for _, c := range m.Cells {
			fmt.Fprintf(w, "| %d | %s | %.0f | %v |\n",
				c.Index, c.ID, c.UpdatesPerSec, time.Duration(c.ElapsedNS).Round(time.Millisecond))
		}
	}
	return nil
}

// countersHold reports whether a group whose estimates differ still keeps
// the contract for streams past tracker capacity: every cell overflowed
// its trackers, all share one counters digest, and every estimate is
// within eps of exact.
func countersHold(cs []CellResult) bool {
	for _, c := range cs {
		if c.Counters == "" || c.Distinct <= c.Tracker || c.Counters != cs[0].Counters || !(c.RelErr <= c.Eps) {
			return false
		}
	}
	return true
}

// fmtG formats a float the way the whole report does: shortest
// round-trippable decimal, a pure function of the value.
func fmtG(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmtG(x)
	}
	return strings.Join(parts, " ")
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, " ")
}
