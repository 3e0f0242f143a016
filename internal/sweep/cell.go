package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/workload"
)

// CellResult is one cell's measurement: the bench run's accuracy and
// space, plus the point-query score of the cell's scenario against a
// CountSketch drawn from the sweep's sketch seed. Everything except the
// trailing timing fields is deterministic given the Config; WriteMerged
// and the default report strip the timing so reruns are byte-identical.
type CellResult struct {
	Cell
	ID       string  `json:"id"`
	Updates  int     `json:"updates"`
	Distinct int     `json:"distinct"`
	Exact    float64 `json:"exact"`
	Estimate float64 `json:"estimate"`
	RelErr   float64 `json:"rel_err"`
	Space    int     `json:"space_bytes"`
	// Windowed-mode extras (zero for whole-stream sweeps).
	Window     int    `json:"window,omitempty"`
	LastTick   uint64 `json:"last_tick,omitempty"`
	StaleTicks uint64 `json:"stale_ticks,omitempty"`
	// Point-query score: mean and max relative error over the PointK
	// true top items of the cell's flat stream, answered by a
	// CountSketch seeded with Spec.Options.Seed. This is the column
	// where the adversarial scenario shows its damage.
	PointK       int     `json:"point_k"`
	PointMeanErr float64 `json:"point_mean_err"`
	PointMaxErr  float64 `json:"point_max_err"`
	// Wall-clock timing: real measurements, NOT deterministic. Kept in
	// the per-cell files; surfaced only by the report's -timing opt-in.
	ElapsedNS     int64   `json:"elapsed_ns,omitempty"`
	UpdatesPerSec float64 `json:"updates_per_sec,omitempty"`
}

// RunCell executes one cell of the matrix: resolve the cell's generator
// and Spec, run the bench through the cell's backend, and score the
// point queries. cfg may be normalized or not; index addresses the
// normalized Cells list.
func RunCell(cfg Config, index int) (CellResult, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return CellResult{}, err
	}
	cells := cfg.Cells()
	if index < 0 || index >= len(cells) {
		return CellResult{}, fmt.Errorf("sweep: cell %d outside the %d-cell matrix", index, len(cells))
	}
	cell := cells[index]
	gen, err := cfg.Generator(cell.Workload)
	if err != nil {
		return CellResult{}, err
	}
	g, err := backend.CatalogFunc(cfg.Spec.G)
	if err != nil {
		return CellResult{}, fmt.Errorf("sweep: %w", err)
	}
	opts := cfg.Spec.Options
	opts.Eps = cell.Eps
	res, err := workload.RunBench(workload.BenchSpec{
		Generator: gen,
		Cfg:       cfg.Stream,
		G:         g,
		Opts:      opts,
		Backend:   cell.Backend,
		Workers:   cell.Workers,
		Window:    int(cfg.Spec.Window.W),
		WindowK:   cfg.Spec.Window.K,
	})
	if err != nil {
		return CellResult{}, fmt.Errorf("sweep: cell %d (%s): %w", index, cell.ID(), err)
	}
	mean, max, err := pointQueryErrs(cfg, gen)
	if err != nil {
		return CellResult{}, fmt.Errorf("sweep: cell %d (%s): %w", index, cell.ID(), err)
	}
	return CellResult{
		Cell:          cell,
		ID:            cell.ID(),
		Updates:       res.Updates,
		Distinct:      res.Distinct,
		Exact:         res.Exact,
		Estimate:      res.Estimate,
		RelErr:        res.RelErr,
		Space:         res.SpaceBytes,
		Window:        res.Window,
		LastTick:      res.LastTick,
		StaleTicks:    res.StaleTicks,
		PointK:        cfg.PointK,
		PointMeanErr:  mean,
		PointMaxErr:   max,
		ElapsedNS:     res.Elapsed.Nanoseconds(),
		UpdatesPerSec: res.UpdatesPerSec,
	}, nil
}

// pointQueryErrs ingests the cell's flat stream into a CountSketch drawn
// from the sweep's sketch seed and scores the PointK largest true items:
// relative error of EstimateItem against the exact frequency, mean and
// max. The sketch is opened through the backend registry (countsketch
// kind, default 5x1024 geometry), so this is exactly the sketch the
// adversarial generator targets when it aims at Spec.Options.Seed.
func pointQueryErrs(cfg Config, gen workload.Generator) (mean, max float64, err error) {
	s := gen.Generate(cfg.Stream)
	e, err := backend.Open(backend.Spec{
		Kind:    backend.KindCountSketch,
		Options: core.Options{N: s.N(), M: cfg.Spec.Options.M, Seed: cfg.Spec.Options.Seed},
	})
	if err != nil {
		return 0, 0, err
	}
	pq, ok := e.(backend.PointQuerier)
	if !ok {
		return 0, 0, fmt.Errorf("countsketch kind lost its PointQuerier capability")
	}
	if err := backend.Process(e, s); err != nil {
		return 0, 0, err
	}
	v := s.Vector()
	top := topItems(v, cfg.PointK)
	var sum float64
	for _, it := range top {
		re := util.RelErr(float64(pq.EstimateItem(it)), float64(v[it]))
		sum += re
		if re > max {
			max = re
		}
	}
	if len(top) > 0 {
		mean = sum / float64(len(top))
	}
	return mean, max, nil
}

// topItems returns up to k items of v by descending |frequency|, ties
// broken by ascending item id — a total order, so the query set is
// deterministic.
func topItems(v stream.Vector, k int) []uint64 {
	items := make([]uint64, 0, len(v))
	for it, c := range v {
		if c != 0 {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool {
		ai, aj := util.SatAbsInt64(v[items[i]]), util.SatAbsInt64(v[items[j]])
		if ai != aj {
			return ai > aj
		}
		return items[i] < items[j]
	})
	if len(items) > k {
		items = items[:k]
	}
	return items
}

// CellFile is the result filename for cell index i in an output
// directory — fixed-width so a directory listing sorts in matrix order.
func CellFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("cell-%04d.json", i))
}

// WriteCellResult writes one cell's JSON result into dir. The write goes
// through a temp file and rename, so a crash mid-write leaves no
// half-written file for the merge to misread — the cell is just missing.
func WriteCellResult(dir string, res CellResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "cell-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), CellFile(dir, res.Index))
}
