package mutants

// The packages rows run. TestOracle (internal/daemon) holds every kind
// to a serial replay through the library, the daemon and the stream.
const (
	backendPkg   = "./internal/backend"
	corePkg      = "./internal/core"
	daemonPkg    = "./internal/daemon"
	recursivePkg = "./internal/recursive"
	rootPkg      = "."
	sketchPkg    = "./internal/sketch"
	windowPkg    = "./internal/window"
)

// table is the ledger. Rows in group "pairwise" are the mutants that
// proved the deletion of the pairwise equality tests TestOracle now
// holds, and "parallel" the ones in ProcessParallel's and RunParallel's
// parallel branches among them, which the root TestPublic* tests kill
// since they stream past 2·stream.BatchSize. Rows in group "window" prove
// the window tests deleted for TestWindowPerTickModel, the window's exact
// model. A row's comment names the deleted test it proves.
var table = []mutant{
	// TestMergeOfAnotherSeedIsRefused (backend).
	{id: "merge-fingerprint-check", group: "pairwise", file: "internal/backend/registry.go",
		old: "df != sf {", new: "df != sf && false {",
		pkgs: []string{backendPkg, daemonPkg}, killers: []string{"TestOracle"}},
	// TestOpenShardMergeEqualsSerial (backend).
	{id: "heavy-merge-arm", group: "pairwise", file: "internal/backend/registry.go",
		old: "return d.OnePass.Merge(s.OnePass)", new: "_ = s; return nil",
		pkgs: []string{backendPkg, daemonPkg}, killers: []string{"TestOracle"}},
	// TestShardedBackendMergeMatchesSerial (backend).
	{id: "recursive-level-merge", group: "pairwise", file: "internal/recursive/merge.go",
		old: "s.levels[k].Merge(other.levels[k])", new: "s.levels[k].Merge(other.levels[0])",
		pkgs: []string{recursivePkg, daemonPkg}, killers: []string{"TestOracle"}},
	// TestShardedProcessBoundaries (backend): the last chunk loses its
	// last update.
	{id: "cut-last-update", group: "pairwise", file: "internal/util/util.go",
		old: "(i + 1) * n / w", new: "(i+1)*n/w - (i+1)/w",
		pkgs: []string{"./internal/util", daemonPkg}, killers: []string{"TestOracle", "TestCutCoversExactly"}, short: true},
	// TestShardedMatchesSerialEveryWorkload (backend): each chunk's first
	// update dropped.
	{id: "process-chunk-head", group: "parallel", file: "internal/core/parallel.go",
		old: "stream.Batches(chunk, ests[i].sk.UpdateBatch)", new: "stream.Batches(chunk[1:], ests[i].sk.UpdateBatch)",
		pkgs: []string{corePkg, daemonPkg, rootPkg}, killers: []string{"TestOracle", "TestPublicShardedKindMatchesSerialExactly"}},
	// TestShardedSynchronousPathMatchesSerial (backend).
	{id: "onepass-update-sign", group: "pairwise", file: "internal/core/core.go",
		old: "e.sk.Update(item, delta)", new: "e.sk.Update(item, -delta)",
		pkgs: []string{corePkg, daemonPkg}, killers: []string{"TestOracle", "TestOnePassStateDigest"}},
	// TestProcessParallelCountersMatchSerial (core): chunk 1 never merged.
	{id: "process-merge-chunks", group: "parallel", file: "internal/core/parallel.go",
		old: "range ests[1:]", new: "range ests[2:]",
		pkgs: []string{corePkg, daemonPkg, rootPkg}, killers: []string{"TestOracle", "TestPublicShardedKindMatchesSerialExactly"}, short: true},
	// TestOnePassCutAndMergeMatchesSerialExactly (core): the candidates of
	// a merge are not re-offered.
	{id: "countsketch-merge-candidates", group: "pairwise", file: "internal/sketch/countsketch.go",
		old: "if cs.topK != nil && other.topK != nil {", new: "if cs.topK != nil && other.topK != nil && false {",
		pkgs: []string{sketchPkg, windowPkg, daemonPkg}, killers: []string{"TestOracle"}},
	// TestTwoPassRunParallelMatchesSerialExactly (core), serial branch.
	{id: "twopass-serial-branch", group: "pairwise", file: "internal/core/parallel.go",
		old: "return e.Run(s), nil", new: "return e.sk.Estimate(), nil",
		pkgs: []string{corePkg, daemonPkg}, killers: []string{"TestOracle"}},
	// TestTwoPassRunParallelMatchesSerialExactly (core), parallel branch.
	{id: "twopass-merge-pass2", group: "parallel", file: "internal/core/parallel.go",
		old: "e.sk.MergePass2(ests[i].sk)", new: "e.sk.MergePass1(ests[i].sk)",
		pkgs: []string{corePkg, daemonPkg, rootPkg}, killers: []string{"TestOracle", "TestPublicTwoPassRunParallelMatchesSerialExactly"}, short: true},
	// core's TestRefusedUnmarshalChangesNothing: merge while staging.
	{id: "stage-each-merges-early", group: "pairwise", file: "internal/wire/wire.go",
		old: "merges[k] = m", new: "m(); merges[k] = func() {}",
		pkgs: []string{recursivePkg, daemonPkg}, killers: []string{"TestOracle", "TestRefusedUnmarshalChangesNothing"}},
	// TestCountSketchMergeOrderInsensitive (root).
	{id: "countsketch-merge-table-count", group: "pairwise", file: "internal/sketch/countsketch.go",
		old: "d := other.tab.counts[e]", new: "d := other.tab.counts[e] + 1",
		pkgs: []string{sketchPkg, daemonPkg}, killers: []string{"TestOracle", "TestCountSketchLinearity"}},
	// TestOnePassEstimatorWireMergeEqualsSerial (core): shipped candidates
	// dropped.
	{id: "stage-drops-candidates", group: "pairwise", file: "internal/sketch/serialize.go",
		old: "for _, it := range items {", new: "for _, it := range items[:0] {",
		pkgs: []string{sketchPkg, daemonPkg}, killers: []string{"TestOracle"}},
	// TestOnePassWireMergeEqualsSerial (heavy).
	{id: "stage-row-order", group: "pairwise", file: "internal/sketch/serialize.go",
		old: "r.AddRow(cs.row(j))", new: "r.AddRow(cs.row(cs.rows - 1 - j))",
		pkgs: []string{sketchPkg, daemonPkg}, killers: []string{"TestOracle"}},
	// TestRecursiveWireMergeEqualsSerial (recursive).
	{id: "recursive-stage-level", group: "pairwise", file: "internal/recursive/serialize.go",
		old: "StageBinary(blobs[k])", new: "StageBinary(blobs[0])",
		pkgs: []string{recursivePkg, daemonPkg}, killers: []string{"TestOracle"}},
	// TestBenchBackendsAgreeExactly (workload): TestOracle does not reach
	// RunBench's backends. workload's TestWindowedBenchBackendsAgreeExactly
	// kills it too, but skips under -short.
	{id: "bench-daemon-cut", group: "pairwise", file: "internal/workload/bench.go",
		old: "util.Cut(len(updates), workers, i)", new: "util.Cut(len(updates)-1, workers, i)",
		pkgs: []string{"./internal/workload", "./cmd/gsum"}, killers: []string{"TestBenchBackendsPrintIdenticalEstimate", "TestBenchWindowedBackendsPrintIdenticalEstimate"}, short: true},

	// The window tests TestWindowPerTickModel made redundant: it checks,
	// after every tick, the merged counters against a serial sketch of the
	// covered ticks and Stale() <= StaleBound(). TestWindowStaleWithinBound
	// and TestWindowExpiry: the stale bound and the expiry it promises.
	{id: "window-stale-bound-low", group: "window", file: "internal/window/window.go",
		old: "return w.span - 1", new: "return w.span - 1 - w.span/2",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowPerTickModel", "TestWindowInvariants"}},
	{id: "window-oldest-one-tick-late", group: "window", file: "internal/window/window.go",
		old: "first := w.now - w.cfg.W + 1", new: "first := w.now - w.cfg.W",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowPerTickModel", "TestWindowInvariants"}},
	// Stale under-reported: only the model, which derives the covered
	// ticks from Stale(), sees it.
	{id: "window-stale-reads-low", group: "window", file: "internal/window/window.go",
		old: "return w.now - w.cfg.W + 1 - w.oldest()", new: "return (w.now - w.cfg.W + 1 - w.oldest()) / 2",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowPerTickModel"}},
	// TestWindowExpiry, TestEstimatorSerialVsParallel (estimates only; its
	// snapshot twin compares bytes) and TestWindowMatchesSuffixSketch:
	// Advance keeps panes it should drop.
	{id: "window-advance-drops-half", group: "window", file: "internal/window/window.go",
		old: "drop := min((w.oldest()-from)/w.span, uint64(len(w.panes)))", new: "drop := min((w.oldest()-from)/w.span, uint64(len(w.panes))) / 2",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowPerTickModel", "TestWindowSerialVsParallelSnapshots"}},
	{id: "window-advance-keeps-dropped", group: "window", file: "internal/window/window.go",
		old: "clear(w.panes[kept:])", new: "_ = kept",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowPerTickModel", "TestWindowSerialVsParallelSnapshots", "TestOracle"}, short: true},
	{id: "window-advance-drops-one-late", group: "window", file: "internal/window/window.go",
		old: "drop := min((w.oldest()-from)/w.span, uint64(len(w.panes)))", new: "drop := min((w.oldest()-from)/w.span, uint64(len(w.panes))-1)",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowPerTickModel", "TestWindowSerialVsParallelSnapshots"}},
	// TestEstimatorSerialVsParallel and TestWindowWireMergeEqualsInProcess
	// (TestWindowWireRoundTrip holds a wire merge to the in-process one):
	// Merge misplaces or skips panes.
	{id: "window-merge-into-newest", group: "window", file: "internal/window/window.go",
		old: "mustMerge(w.pane(i), p)", new: "mustMerge(w.pane(len(w.panes)-1), p); _ = i",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowSerialVsParallelSnapshots", "TestWindowWireRoundTrip"}},
	{id: "window-merge-skips-oldest", group: "window", file: "internal/window/window.go",
		old: "for i, p := range other.panes {", new: "for i, p := range other.panes[1:] {\n\t\ti++",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowSerialVsParallelSnapshots", "TestWindowWireRoundTrip", "TestOracle"}},
	// TestWindowMatchesSuffixSketch: Merged leaves a pane out.
	{id: "window-merged-skips-oldest", group: "window", file: "internal/window/window.go",
		old: "out := w.newPane()\n\tfor _, p := range w.panes {", new: "out := w.newPane()\n\tfor _, p := range w.panes[1:] {",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowPerTickModel", "TestEstimatorTracksWindowedExact"}},
	// TestWindowMatchesSuffixSketch compares Merged's trackers too: a merge
	// that drops the other side's candidates (see also
	// countsketch-merge-candidates). Merged's fold order, and dropping the
	// receiver's own re-offer, are equivalent while the trackers hold every
	// item, so they have no row.
	{id: "window-tracker-merge-drops-theirs", group: "window", file: "internal/sketch/countsketch.go",
		old: "for i, est := range cs.estimates(theirs) {", new: "for i, est := range cs.estimates(theirs[:0]) {",
		pkgs: []string{sketchPkg, windowPkg, daemonPkg}, killers: []string{"TestOracle", "TestWindowSerialVsParallelSnapshots"}},
	// TestWindowWireMergeEqualsInProcess: a snapshot decoded into the wrong
	// panes, or not at all.
	{id: "window-decode-into-newest", group: "window", file: "internal/window/serialize.go",
		old: "mustMerge(w.panes[i], sk)", new: "mustMerge(w.panes[len(w.panes)-1], sk)",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowWireRoundTrip"}},
	{id: "window-decode-skips-oldest", group: "window", file: "internal/window/serialize.go",
		old: "if bytes.Equal(blob, w.emptyBlob) {", new: "if i == 0 || bytes.Equal(blob, w.emptyBlob) {",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowWireRoundTrip", "TestOracle"}},
	{id: "window-decode-adopts-newest", group: "window", file: "internal/window/serialize.go",
		old: "w.panes[i] = sk // the staging pane is exclusively ours", new: "w.panes[len(w.panes)-1] = sk",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowWireRoundTrip", "TestOracle"}},
	{id: "window-decode-merges-twice", group: "window", file: "internal/window/serialize.go",
		old: "mustMerge(w.panes[i], sk)", new: "mustMerge(w.panes[i], sk); mustMerge(w.panes[i], sk)",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestWindowWireRoundTrip", "TestOracle"}},
	// Updates land in the wrong pane, and an estimate that reads one pane:
	// the oracle's replay is a window too, so only the tests that hold the
	// window to something else see the second.
	{id: "window-update-batch-oldest", group: "window", file: "internal/window/window.go",
		old: "stream.Batches(batch, w.pane(len(w.panes)-1).UpdateBatch)", new: "stream.Batches(batch, w.pane(0).UpdateBatch)",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestOracle", "TestWindowStateDigest"}},
	{id: "window-estimate-newest-pane", group: "window", file: "internal/window/window.go",
		old: "func (w *Window) EstimateFor(g gfunc.Func) float64 { return w.Merged().EstimateFor(g) }", new: "func (w *Window) EstimateFor(g gfunc.Func) float64 { return w.pane(len(w.panes)-1).EstimateFor(g) }",
		pkgs: []string{windowPkg, backendPkg, daemonPkg}, killers: []string{"TestEstimatorTracksWindowedExact"}},
}
