package mutants

// The packages rows run. TestOracle (internal/daemon) holds every kind
// to a serial replay through the library, the daemon and the stream.
const (
	backendPkg     = "./internal/backend"
	corePkg        = "./internal/core"
	daemonPkg      = "./internal/daemon"
	experimentsPkg = "./internal/experiments"
	heavyPkg       = "./internal/heavy"
	recursivePkg   = "./internal/recursive"
	rootPkg        = "."
	sketchPkg      = "./internal/sketch"
	sweepPkg       = "./internal/sweep"
	windowPkg      = "./internal/window"
	workloadPkg    = "./internal/workload"
)

// stackPkgs are the packages a stack row runs.
var stackPkgs = []string{sketchPkg, heavyPkg, recursivePkg, corePkg, daemonPkg, rootPkg}

// table is the ledger. Rows in group "pairwise" are the mutants that
// proved the deletion of the pairwise equality tests TestOracle now
// holds, and "parallel" the ones in ProcessParallel's and RunParallel's
// parallel branches among them, which the root TestPublic* tests kill
// since they stream past 2·stream.BatchSize. Rows in group "window" prove
// the window tests deleted for TestWindowPerTickModel, the window's exact
// model. Rows in group "daemon" break one line of internal/daemon's
// program files, and prove the daemon tests deleted for TestOracle and for
// the tests that took their cases. Rows in group "accuracy" change the
// paper's math the same way on every path, so no agreement test sees them:
// they measure what the referee (backend's TestConformance, its
// statistical checks, and TestConformanceLayoutPin, the exact counts)
// and the cover's unit tests can see. Rows in group "stack" break one
// line of internal/sketch, heavy, recursive or core, and prove the layer
// tests deleted because an outer layer's test or TestOracle checks the
// same contract. Rows in group "workload" break one line of the stream
// generators' sampler or working set, and prove that TestGeneratorsPinned
// holds every generated stream to the bytes it had before both were
// rewritten for speed. A row's comment names the deleted test it proves.
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
	// recursive's TestRefusedUnmarshalChangesNothing (deleted with the
	// stack rows: see stack-stage-level-merges-early): merge while staging.
	{id: "stage-each-merges-early", group: "pairwise", file: "internal/wire/wire.go",
		old: "merges[k] = m", new: "m(); merges[k] = func() {}",
		pkgs: []string{recursivePkg, daemonPkg}, killers: []string{"TestOracle"}},
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

	// The daemon. TestOracle asks every kind, through the in-process and
	// JSON doors and the stream, for its point queries, a post-hoc
	// function, its cover's items and its window clock (the reads of the
	// five TestE2E*Backend tests, deleted with their cluster helpers) and
	// holds a refused /v1/merge to a 409 naming its reason, which
	// TestMergeRejectsMismatchedConfiguration and
	// TestRefusedMergeLeavesTheAggregate checked (deleted).
	// TestIngestRejectsOutOfDomainItems posts item N itself.
	{id: "daemon-apply-domain-bound", group: "daemon", file: "internal/daemon/daemon.go",
		old: "if u.Item >= n {", new: "if u.Item > n {",
		pkgs: []string{daemonPkg}, killers: []string{"TestIngestRejectsOutOfDomainItems"}},
	{id: "daemon-apply-counts-one", group: "daemon", file: "internal/daemon/daemon.go",
		old: "s.ingests += uint64(len(batch))", new: "s.ingests++",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle", "TestIngestRejectsOutOfDomainItems"}},
	// The JSON door's own refusal: TestPushRejectsItemsBeyondInt64 posts
	// raw JSON now that the client verb it pushed through is gone.
	{id: "daemon-ingest-negative-item", group: "daemon", file: "internal/daemon/daemon.go",
		old: "if p[0] < 0 {", new: "if false {",
		pkgs: []string{daemonPkg}, killers: []string{"TestPushRejectsItemsBeyondInt64"}},
	// Another seed's snapshot merged. TestOracle's opRefuse posts one of
	// every kind.
	{id: "daemon-wire-fingerprint-unchecked", group: "daemon", file: "internal/wire/wire.go",
		old: "} else if fp != fingerprint {", new: "} else if false {",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle", "TestRestoreRefusesDriftedFingerprint"}},
	{id: "daemon-merge-refusal-status", group: "daemon", file: "internal/daemon/daemon.go",
		old: "writeError(w, http.StatusConflict, err)", new: "writeError(w, http.StatusBadRequest, err)",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle"}},
	{id: "daemon-handshake-skipped", group: "daemon", file: "internal/daemon/daemon.go",
		old: "if req.Fingerprint != s.fp {", new: "if false {",
		pkgs: []string{daemonPkg}, killers: []string{"TestPullFromRejectsSpecMismatchBeforeMerge", "TestHeartbeatCountsDriftAsMiss"}},
	// The function asked for has exactly the envelope the sketch was sized
	// for.
	{id: "daemon-sized-for-boundary", group: "daemon", file: "internal/daemon/daemon.go",
		old: "h > s.spec.Options.Envelope", new: "h >= s.spec.Options.Envelope",
		pkgs: []string{daemonPkg}, killers: []string{"TestPostHocQueryRefusesFunctionsPastTheEnvelope"}},
	// TestE2ECountSketchBackend: ?item=.
	{id: "daemon-point-query-item", group: "daemon", file: "internal/daemon/daemon.go",
		old: "Estimate: f64p(float64(pq.EstimateItem(item)))", new: "Estimate: f64p(float64(pq.EstimateItem(item + 1)))",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle"}},
	// TestE2EUniversalBackendPostHocQueries: ?g= answers the Spec's g.
	{id: "daemon-post-hoc-own-g", group: "daemon", file: "internal/daemon/daemon.go",
		old: "return EstimateResult{G: name, Estimate: f64p(fq.EstimateFor(g))}, nil", new: "_, _ = fq, g; return EstimateResult{G: name, Estimate: f64p(s.est.Estimate())}, nil",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle", "TestPostHocQueryRefusesFunctionsPastTheEnvelope"}},
	// TestE2EHeavyBackend: the cover's item ids.
	{id: "daemon-cover-item", group: "daemon", file: "internal/daemon/daemon.go",
		old: "entries[i] = CoverEntry{Item: c.Item,", new: "entries[i] = CoverEntry{Item: c.Item ^ 1,",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle"}},
	// TestE2EWindowBackend: tick and stale_ticks.
	{id: "daemon-window-stale-ticks", group: "daemon", file: "internal/daemon/daemon.go",
		old: "StaleTicks: u64p(e.Stale()),", new: "StaleTicks: u64p(0),",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle"}},
	{id: "daemon-window-tick", group: "daemon", file: "internal/daemon/daemon.go",
		old: "Tick:       u64p(e.Now()),", new: "Tick:       u64p(e.Now() + 1),",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle"}},
	{id: "daemon-advance-ignored", group: "daemon", file: "internal/daemon/daemon.go",
		old: "now = win.Advance(req.Tick)", new: "now = req.Tick; _ = win",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle", "TestAdvanceEndpoint"}},
	// gsumd_ingest_batches_total by transport, which bench/ reads.
	{id: "daemon-ingest-metric-transport", group: "daemon", file: "internal/daemon/observe.go",
		old: "m.ingestBatches[transport].Inc()", new: "m.ingestBatches[transportJSON].Inc()",
		pkgs: []string{daemonPkg}, killers: []string{"TestMetricsEndpointCountsIngest"}},
	// The header check skipped, a drifted checkpoint is refused later as
	// corrupt, without "refusing checkpoint". TestRestoreDriftMessageNamesBothFingerprints
	// (folded into TestRestoreRefusesDriftedFingerprint) killed only
	// daemon-wire-fingerprint-unchecked.
	{id: "daemon-restore-header-unchecked", group: "daemon", file: "internal/daemon/checkpoint.go",
		old: "if err := r.Header(checkpointMagic, s.fp); err != nil {", new: "if err := r.Header(checkpointMagic, s.fp); err != nil && false {",
		pkgs: []string{daemonPkg}, killers: []string{"TestRestoreRefusesDriftedFingerprint"}},
	{id: "daemon-restore-keeps-ingests", group: "daemon", file: "internal/daemon/checkpoint.go",
		old: "s.ingests = ingests", new: "_ = ingests",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle"}},
	{id: "daemon-checkpoint-drops-ingests", group: "daemon", file: "internal/daemon/checkpoint.go",
		old: "w.U64(s.ingests)", new: "w.U64(0)",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle"}},
	{id: "daemon-restore-clock", group: "daemon", file: "internal/daemon/checkpoint.go",
		old: "ok && tick > 0 {", new: "ok && false {",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle", "TestWindowCheckpointRestoresClock"}},
	{id: "daemon-checkpoint-bytes-gauge", group: "daemon", file: "internal/daemon/checkpoint.go",
		old: "s.obs.checkpointBytes.Set(float64(len(data)))", new: "_ = data",
		pkgs: []string{daemonPkg}, killers: []string{"TestCheckpointMetrics"}},
	{id: "daemon-rebuild-no-swap", group: "daemon", file: "internal/daemon/membership.go",
		old: "s.est = fresh", new: "_ = fresh",
		pkgs: []string{daemonPkg}, killers: []string{"TestAutoPullRebuildsWithoutDoubleCounting"}},
	{id: "daemon-rebuild-no-catch-up", group: "daemon", file: "internal/daemon/membership.go",
		old: "catchUp()\n\t\ts.est = fresh", new: "s.est = fresh",
		pkgs: []string{daemonPkg}, killers: []string{"TestAdvanceDuringRebuildIsNotLost"}},
	{id: "daemon-heartbeat-one-late", group: "daemon", file: "internal/daemon/membership.go",
		old: "mem.info.Misses >= cfg.MaxMisses", new: "mem.info.Misses > cfg.MaxMisses",
		pkgs: []string{daemonPkg}, killers: []string{"TestHeartbeatMarksDownAndRecovers"}},
	{id: "daemon-pull-drops-dead-snapshot", group: "daemon", file: "internal/daemon/membership.go",
		old: "if mem.info.HasSnapshot {", new: "if mem.info.HasSnapshot && mem.info.Alive {",
		pkgs: []string{daemonPkg}, killers: []string{"TestPullKeepsDeadWorkersLastSnapshot"}},
	{id: "daemon-pull-skips-handshake", group: "daemon", file: "internal/daemon/client.go",
		old: "return wc.CheckSpecContext(ctx, info.Fingerprint)", new: "_, _ = wc, info; return nil",
		pkgs: []string{daemonPkg}, killers: []string{"TestPullFromRejectsSpecMismatchBeforeMerge", "TestPullFromDeadWorkerFailsFastWithZeroMerges"}},
	// The five TestE2E*Backend tests pulled two workers into a
	// coordinator; TestKillAndRestartE2E still does.
	{id: "daemon-pull-first-worker-only", group: "daemon", file: "internal/daemon/client.go",
		old: "for _, w := range workers {\n\t\twc := NewClient(w, c.hc)\n\t\tvar snap []byte", new: "for _, w := range workers[:1] {\n\t\twc := NewClient(w, c.hc)\n\t\tvar snap []byte",
		pkgs: []string{daemonPkg}, killers: []string{"TestKillAndRestartE2E"}},
	// TestPushReusesConnections, moved onto CheckSpecContext as
	// TestClientReusesConnections: drainClose's drain.
	{id: "daemon-client-no-drain", group: "daemon", file: "internal/daemon/client.go",
		old: "_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<16))", new: "",
		pkgs: []string{daemonPkg}, killers: []string{"TestClientReusesConnections"}},
	{id: "daemon-client-oversize-snapshot", group: "daemon", file: "internal/daemon/client.go",
		old: "if len(data) > maxBodyBytes {", new: "if false {",
		pkgs: []string{daemonPkg}, killers: []string{"TestOversizeSnapshotRejected"}},
	{id: "daemon-client-unbounded", group: "daemon", file: "internal/daemon/client.go",
		old: "if t <= 0 {", new: "if false {",
		pkgs: []string{daemonPkg}, killers: []string{"TestNewClientDefaultTimeout"}},
	{id: "daemon-stream-keeps-big-buffers", group: "daemon", file: "internal/daemon/stream.go",
		old: "if len(batch) <= streamKeepUpdates {", new: "if true {",
		pkgs: []string{daemonPkg}, killers: []string{"TestStreamSessionDropsANearCapFrame"}},
	{id: "daemon-stream-fresh-buffers", group: "daemon", file: "internal/daemon/stream.go",
		old: "payloadBuf, batchBuf = payload, batch", new: "_, _ = payload, batch",
		pkgs: []string{daemonPkg}, killers: []string{"TestStreamSteadyStateAllocFree"}},
	{id: "daemon-stream-drain-unchecked", group: "daemon", file: "internal/daemon/stream.go",
		old: "if st.draining {\n\t\treturn false\n\t}\n\tif st.beforeArm", new: "if false {\n\t\treturn false\n\t}\n\tif st.beforeArm",
		pkgs: []string{daemonPkg}, killers: []string{"TestPusherDrainingRedeliverableCount"}},
	{id: "daemon-stream-acked-frames", group: "daemon", file: "internal/daemon/stream.go",
		old: "s.obs.ackedFrames.Inc()", new: "",
		pkgs: []string{daemonPkg}, killers: []string{"TestMetricsEndpointCountsIngest"}},
	// The daemon acks every applied frame before its draining ack, so
	// against it the Pusher never holds the frame a draining ack names;
	// only a peer that acks with the drain alone (TestPusherDrainAckReleasesItsSeq)
	// sees the release stop one frame short. Dropping lastSeq from the
	// daemon's draining ack is equivalent for the same reason and has no
	// row.
	{id: "daemon-pusher-drain-release", group: "daemon", file: "internal/daemon/pusher.go",
		old: "if seq <= ack.Seq {", new: "if seq < ack.Seq {",
		pkgs: []string{daemonPkg}, killers: []string{"TestPusherDrainAckReleasesItsSeq"}},
	{id: "daemon-pusher-flush-cause", group: "daemon", file: "internal/daemon/pusher.go",
		old: "case len(p.buf) >= p.cfg.MaxBatch:\n\t\t\tp.stats.FlushSize++", new: "case len(p.buf) >= p.cfg.MaxBatch:\n\t\t\tp.stats.FlushAge++",
		pkgs: []string{daemonPkg}, killers: []string{"TestPusherMetrics"}},
	// failSend not waiting for the ack reader: the send error wins over
	// the refusal's reason. TestPusherRefusalReasonBeatsReset's second
	// peer holds the refusal back until the write has failed.
	{id: "daemon-pusher-send-error-first", group: "daemon", file: "internal/daemon/pusher.go",
		old: "case <-p.readerEnd:", new: "default:",
		pkgs: []string{daemonPkg}, killers: []string{"TestPusherRefusalReasonBeatsReset"}},
	// A refused session that closes with the client's frames unread is
	// reset, and the reset can discard the error ack.
	{id: "daemon-stream-refusal-no-drain", group: "daemon", file: "internal/daemon/stream.go",
		old: "_, _ = io.Copy(io.Discard, io.LimitReader(bufrw, int64(st.frameCap())))", new: "",
		pkgs: []string{daemonPkg}, killers: []string{"TestStreamRefusalAckSurvivesUnreadFrames"}},
	{id: "daemon-pusher-dial-no-port", group: "daemon", file: "internal/daemon/pusher.go",
		old: "return net.JoinHostPort(u.Hostname(), \"80\")", new: "return u.Host",
		pkgs: []string{daemonPkg}, killers: []string{"TestDialAddr"}},

	// Accuracy (ROADMAP item 21's A1-A5): killers as measured under
	// -short. A1 trips the referee's binomial floor and A3 its
	// checkAgainstParent (the eps/4 counts), at 10 seeds and at 40; A2, A4
	// and A5 pass TestConformance at both and are held by the cover's unit
	// tests, the sweep's golden report and the layout pin alone.
	{id: "accuracy-combine-no-doubling", group: "accuracy", file: "internal/recursive/recursive.go",
		old: "est = heavySum + 2*(est-survivorSum)", new: "est = heavySum + (est-survivorSum)",
		pkgs:    []string{recursivePkg, heavyPkg, sweepPkg, backendPkg},
		killers: []string{"TestConformance", "TestConformanceLayoutPin", "TestCombineCoversDoubling", "TestDeepestLevelHoldsItsUniverse", "TestFlatStreamKeepsItsWindow", "TestGoldenReport"}},
	{id: "accuracy-combine-no-clamp", group: "accuracy", file: "internal/recursive/recursive.go",
		old: "if est < heavySum {", new: "if false {",
		pkgs: []string{recursivePkg, backendPkg}, killers: []string{"TestCombineCoversClampsNegativeRemainder", "TestConformanceLayoutPin"}},
	{id: "accuracy-window-tau-3", group: "accuracy", file: "internal/heavy/onepass.go",
		old: "const windowTau = 1.5", new: "const windowTau = 3",
		pkgs: []string{heavyPkg, sweepPkg, backendPkg}, killers: []string{"TestConformance", "TestOnePassCoverFindsExactHeavy", "TestGoldenReport", "TestConformanceLayoutPin"}},
	{id: "accuracy-window-half-width", group: "accuracy", file: "internal/heavy/onepass.go",
		old: "w := 2 * math.Sqrt(f2tail/float64(buckets))", new: "w := 1 * math.Sqrt(f2tail/float64(buckets))",
		pkgs:    []string{heavyPkg, sweepPkg, backendPkg},
		killers: []string{"TestOnePassCoverFindsExactHeavy", "TestErrorWindowClampsToInt64", "TestFlatStreamKeepsItsWindow", "TestGoldenReport", "TestConformanceLayoutPin"}},
	{id: "accuracy-no-pruning", group: "accuracy", file: "internal/heavy/onepass.go",
		old: "stable = o.noPrune || stableUnder(g, v, window, o.eps)", new: "stable = o.noPrune || stableUnder(g, v, window, o.eps) || true",
		pkgs:    []string{heavyPkg, experimentsPkg, sweepPkg, backendPkg},
		killers: []string{"TestOnePassCoverFindsExactHeavy", "TestFlatStreamKeepsItsWindow", "TestE5ExactAlwaysWins", "TestGoldenReport", "TestConformanceLayoutPin"}},
	// The sketch stack: one line of a program file of internal/sketch,
	// heavy, recursive or core a row, run against those four packages,
	// internal/daemon (TestOracle) and the root. Killers as measured
	// (examples left out); a row with more than eight names its own
	// package's first, then TestOracle. The tracker, the median, the row
	// hash and F2: their unit tests and the state digests.
	{id: "stack-tracker-tie-admits", group: "stack", file: "internal/sketch/countsketch.go",
		old: "if a <= t.heap[0].score {", new: "if a < t.heap[0].score {",
		pkgs:    stackPkgs,
		killers: []string{"TestCountSketchStateDigest", "TestRejectMatchesOffer", "TestTrackerMatchesMapTracker", "TestOnePassStateDigest", "TestTwoPassStateDigest"}},
	{id: "stack-f2-sums-counters", group: "stack", file: "internal/sketch/countsketch.go",
		old: "sum += fc * fc", new: "sum += fc",
		pkgs:    stackPkgs,
		killers: []string{"TestAMSMatchesCountSketchRowNorm", "TestCountSketchEstimateF2", "TestFlatStreamKeepsItsWindow", "TestOnePassCoverFindsExactHeavy"}},
	{id: "stack-median-first", group: "stack", file: "internal/sketch/countsketch.go",
		old: "return v[mid]", new: "return v[0]",
		pkgs:    stackPkgs,
		killers: []string{"TestCountSketchPointQueryGuarantee", "TestCountSketchStateDigest", "TestMedianMatchesSort", "TestRejectMatchesOffer", "TestLongBatchKeepsNoScratch", "TestOnePassStateDigest", "TestTruncationIsIdentity", "TestFlatStreamKeepsItsWindow"}},
	{id: "stack-row-hash-coefficient", group: "stack", file: "internal/sketch/countsketch.go",
		old: "v = xhash.HornerStep(v, xp, c[1])", new: "v = xhash.HornerStep(v, xp, c[2])",
		pkgs:    stackPkgs,
		killers: []string{"TestCountSketchStateDigest", "TestHashRowMatchesHashFamilies", "TestIngestBatchPathBitIdentical", "TestMinInt64DeltaDoesNotPanic", "TestRowHashMatchesHashFamilies", "TestSharedFamilyHashesABatchOnce", "TestSparseMatchesDense", "TestSparseMergesMatchDense"}},
	{id: "stack-packed-sign-dropped", group: "stack", file: "internal/sketch/countsketch.go",
		old: "return uint32(v>>1%b<<1 | v&1)", new: "return uint32(v >> 1 % b << 1)",
		pkgs: stackPkgs, killers: []string{"TestCountSketchStateDigest", "TestHashRowMatchesHashFamilies"}},
	// Merges, dense and sparse. A merge or a decode that does not re-score
	// the receiver's own candidates survived every test until
	// TestUnmarshalTrackerMatchesMergeTopK checked each tracked score
	// against the merged counters.
	{id: "stack-merge-dense-subtracts", group: "stack", file: "internal/sketch/countsketch.go",
		old: "cs.flat[i] += v", new: "cs.flat[i] -= v",
		pkgs:    stackPkgs,
		killers: []string{"TestSparseMergesMatchDense", "TestOracle", "TestProcessParallelTurnstilePairCancels", "TestSoakWindowed"}},
	{id: "stack-merge-table-unsigned", group: "stack", file: "internal/sketch/countsketch.go",
		old: "cs.flat[uint64(j)*cs.buckets+uint64(p>>1)] += signed(p, d)", new: "cs.flat[uint64(j)*cs.buckets+uint64(p>>1)] += d",
		pkgs: stackPkgs, killers: []string{"TestCountSketchLinearity", "TestSparseMergesMatchDense", "TestOracle"}},
	{id: "stack-merge-no-rescore-ours", group: "stack", file: "internal/sketch/countsketch.go",
		old: "cs.topK.offer(ours[i], est)", new: "_, _ = ours[i], est",
		pkgs: stackPkgs, killers: []string{"TestUnmarshalTrackerMatchesMergeTopK"}},
	// The sparse table, held to its dense twin.
	{id: "stack-sparse-update-row0-hash", group: "stack", file: "internal/sketch/countsketch.go",
		old: "cs.tab.place(e, j, cs.hash.rowPacked(j, xp))", new: "cs.tab.place(e, j, cs.hash.rowPacked(0, xp))",
		pkgs:    stackPkgs,
		killers: []string{"TestCountSketchLinearity", "TestCountSketchPointQueryGuarantee", "TestIngestBatchPathBitIdentical", "TestMarshalUnmarshalRoundTrip", "TestMergeTopKUnionCandidates", "TestMinInt64DeltaDoesNotPanic", "TestSharedFamilyHashesABatchOnce", "TestSparseMatchesDense"}},
	{id: "stack-table-counter-sign", group: "stack", file: "internal/sketch/sparse.go",
		old: "if q^p < 2 {", new: "if q == p {",
		pkgs:    stackPkgs,
		killers: []string{"TestMarshalUnmarshalRoundTrip", "TestSparseMatchesDense", "TestSparseMergesMatchDense", "TestSparseStackMatchesDense", "TestTrackedTableMaterializesPastOneChunk", "TestUnmarshalAddsLikeMerge"}},
	{id: "stack-occupancy-saturates-at-one", group: "stack", file: "internal/sketch/sparse.go",
		old: "if (t.occ[w]>>sh)&3 < 2 {", new: "if (t.occ[w]>>sh)&3 < 1 {",
		pkgs:    stackPkgs,
		killers: []string{"TestMarshalUnmarshalRoundTrip", "TestSparseMatchesDense", "TestSparseMergesMatchDense", "TestSparseStackMatchesDense", "TestTrackedTableMaterializesPastOneChunk", "TestUnmarshalAddsLikeMerge", "TestTwoPassStateDigest"}},
	{id: "stack-table-over-budget", group: "stack", file: "internal/sketch/sparse.go",
		old: "+8*occWords(r, t.buckets) > t.budget {", new: "+8*occWords(r, t.buckets) > 2*t.budget {",
		pkgs:    stackPkgs,
		killers: []string{"TestSparseMatchesDense", "TestSparseMergesMatchDense", "TestSparseStackMatchesDense"}},
	// The collapse.
	{id: "stack-collapse-sel-reversed", group: "stack", file: "internal/sketch/batch.go",
		old: "b.sel[i] = int32(i)", new: "b.sel[i] = int32(n - 1 - i)",
		pkgs:    stackPkgs,
		killers: []string{"TestCountSketchStateDigest", "TestLongBatchKeepsNoScratch", "TestOnePassStateDigest", "TestCascadeMatchesMember", "TestTwoPassStateDigest"}},
	{id: "stack-collapse-run-keeps-last", group: "stack", file: "internal/sketch/batch.go",
		old: "d += batch[j].Delta", new: "d = batch[j].Delta",
		pkgs:    stackPkgs,
		killers: []string{"TestCollapseAggregatesExactly", "TestCountSketchStateDigest", "TestIngestBatchPathBitIdentical", "TestUpdateBatchMatchesUpdateExactly", "TestOracle", "TestBatchAndSingleUpdatePathsAgreeThroughPublicAPI", "TestPublicTwoPassFlow", "TestPublicUniversalSketch"}},
	// The CountSketch wire. heavy's TestOnePassUnmarshalRejectsWrongSeed
	// and recursive's TestRecursiveUnmarshalRejectsWrongSeed: another
	// seed's payload is refused at core and through TestOracle's nestings.
	{id: "stack-wire-no-rescore-ours", group: "stack", file: "internal/sketch/serialize.go",
		old: "if rescore {", new: "if rescore && false {",
		pkgs: stackPkgs, killers: []string{"TestUnmarshalTrackerMatchesMergeTopK"}},
	{id: "stack-fingerprint-ignores-hashes", group: "stack", file: "internal/sketch/serialize.go",
		old: "return wire.Fingerprint(cs.hash.digest, k)", new: "return wire.Fingerprint(0, k)",
		pkgs:    stackPkgs,
		killers: []string{"TestCountSketchStateDigest", "TestOracle", "TestLongBatchKeepsNoScratch", "TestOnePassStateDigest", "TestTwoPassStateDigest"}},
	// The two-pass candidate protocol. heavy's
	// TestTwoPassWireProtocolEqualsSerial and recursive's
	// TestRecursiveTwoPassWireProtocolEqualsSerial: core's
	// TestTwoPassEstimatorWireProtocolEqualsSerial runs the same protocol
	// through both layers, and restores the coordinator's snapshot into a
	// fresh estimator (stack-twopass-adopt-zero-counts survived every test
	// before). A stack adopting or merging every level's tabulation from
	// level 0 is equivalent while level 0 tracks every item, so it has no
	// row.
	{id: "stack-twopass-merge-pass2-keeps-last", group: "stack", file: "internal/heavy/twopass.go",
		old: "t.counts[it] += c", new: "t.counts[it] = c",
		pkgs: stackPkgs, killers: []string{"TestOracle", "TestPublicTwoPassRunParallelMatchesSerialExactly"}},
	{id: "stack-twopass-adopt-drops-first", group: "stack", file: "internal/heavy/twopass.go",
		old: "t.cands = append(t.cands[:0], from.cands...)", new: "t.cands = append(t.cands[:0], from.cands[1:]...)",
		pkgs: stackPkgs, killers: []string{"TestOracle", "TestPublicTwoPassRunParallelMatchesSerialExactly"}},
	{id: "stack-twopass-unsorted-candidates", group: "stack", file: "internal/heavy/twopass.go",
		old: "slices.Sort(t.cands)", new: "slices.Sort(t.cands[:0])",
		pkgs:    stackPkgs,
		killers: []string{"TestTwoPassSnapshotRefusesForeignCandidates", "TestOracle", "TestTwoPassEstimatorWireProtocolEqualsSerial", "TestTwoPassStateDigest"}},
	{id: "stack-twopass-wire-tabulation-keeps-last", group: "stack", file: "internal/heavy/serialize.go",
		old: "t.counts[it] += counts[i]", new: "t.counts[it] = counts[i]",
		pkgs: stackPkgs, killers: []string{"TestTwoPassEstimatorWireProtocolEqualsSerial"}},
	{id: "stack-twopass-wire-never-adopts", group: "stack", file: "internal/heavy/serialize.go",
		old: "case len(t.cands) == 0:", new: "case false:",
		pkgs: stackPkgs, killers: []string{"TestTwoPassEstimatorWireProtocolEqualsSerial"}},
	{id: "stack-twopass-marshal-zero-tabulations", group: "stack", file: "internal/heavy/serialize.go",
		old: "counts[i] = t.counts[it]", new: "counts[i] = 0; _ = it",
		pkgs:    stackPkgs,
		killers: []string{"TestTwoPassEstimatorWireProtocolEqualsSerial", "TestTwoPassStateDigest"}},
	{id: "stack-twopass-adopt-zero-counts", group: "stack", file: "internal/heavy/serialize.go",
		old: "t.counts[it] = counts[i]", new: "t.counts[it] = 0 * counts[i]",
		pkgs: stackPkgs, killers: []string{"TestTwoPassEstimatorWireProtocolEqualsSerial"}},
	// The cover, the cascade and the depth.
	{id: "stack-cover-reuses-first-verdict", group: "stack", file: "internal/heavy/onepass.go",
		old: "i == 0 || v != last {", new: "i == 0 || v != last && false {",
		pkgs:    stackPkgs,
		killers: []string{"TestFlatStreamKeepsItsWindow", "TestOnePassCoverFindsExactHeavy", "TestPublicEstimatorMergeExposed", "TestPublicUniversalSketch", "TestDistributedTurnstileCancellation", "TestMedianAmplification", "TestOnePassTractableAccuracy", "TestShardAndMergeMatchesSinglePass"}},
	{id: "stack-update-past-miss", group: "stack", file: "internal/recursive/recursive.go",
		old: "return\n\t\t}\n\t\ts.levels[k+1].Update(item, delta)", new: "continue\n\t\t}\n\t\ts.levels[k+1].Update(item, delta)",
		pkgs:    stackPkgs,
		killers: []string{"TestRecursiveSketchEstimatesGSum", "TestOracle", "TestBatchAndSingleUpdatePathsAgreeThroughPublicAPI", "TestPublicEstimatorMergeExposed", "TestOnePassStateDigest", "TestShardAndMergeMatchesSinglePass"}},
	{id: "stack-twopass-pass2-wrong-level", group: "stack", file: "internal/recursive/twopass.go",
		old: "s.levels[k+1].Pass2(item, delta)", new: "s.levels[k].Pass2(item, delta)",
		pkgs:    stackPkgs,
		killers: []string{"TestTwoPassRecursiveMatchesExact", "TestTwoPassStateDigest", "TestOracle", "TestTwoPassEstimatorWireProtocolEqualsSerial"}},
	{id: "stack-merge-pass1-level0", group: "stack", file: "internal/recursive/batch.go",
		old: "s.levels[k].MergePass1(other.levels[k])", new: "s.levels[k].MergePass1(other.levels[0])",
		pkgs: stackPkgs, killers: []string{"TestOracle"}},
	{id: "stack-depth-one-deeper", group: "stack", file: "internal/recursive/recursive.go",
		old: "uint64(capacity)+1)+1)", new: "uint64(capacity)+1)+2)",
		pkgs:    stackPkgs,
		killers: []string{"TestDeepestLevelHoldsItsUniverse", "TestDepthRule", "TestRecursiveLevelsDefault", "TestStacksAgreeOnDepth", "TestTwoPassStateDigest", "TestLongBatchKeepsNoScratch", "TestOnePassStateDigest", "TestSketchDepthIsObservable"}},
	// The estimators' pass switch.
	{id: "stack-twopass-update-stays-pass1", group: "stack", file: "internal/core/core.go",
		old: "e.sk.Pass2(item, delta)", new: "e.sk.Pass1(item, delta)",
		pkgs: stackPkgs, killers: []string{"TestOracle"}},
	{id: "stack-twopass-run-pass2-as-pass1", group: "stack", file: "internal/core/core.go",
		old: "stream.Batches(s.Updates(), e.sk.Pass2Batch)", new: "stream.Batches(s.Updates(), e.sk.Pass1Batch)",
		pkgs:    stackPkgs,
		killers: []string{"TestTwoPassEstimatorWireProtocolEqualsSerial", "TestTwoPassTractableAccuracy", "TestUnpredictableDefeatsOnePassCover", "TestOracle", "TestPublicTwoPassFlow", "TestPublicTwoPassRunParallelMatchesSerialExactly"}},
	{id: "stack-finish-pass1-keeps-pass1", group: "stack", file: "internal/core/core.go",
		old: "e.pass2 = true", new: "e.pass2 = false",
		pkgs: stackPkgs, killers: []string{"TestOracle"}},
	// recursive's TestRefusedUnmarshalChangesNothing: a level merged while
	// staging. TestOracle refuses a bad last row of every kind by name.
	{id: "stack-stage-level-merges-early", group: "stack", file: "internal/recursive/serialize.go",
		old: "return merge, nil", new: "merge()\n\t\treturn func() {}, nil",
		pkgs:    stackPkgs,
		killers: []string{"FuzzRecursiveTwoPassUnmarshal", "FuzzRecursiveUnmarshal", "TestOracle", "FuzzOnePassEstimatorUnmarshal", "FuzzTwoPassEstimatorUnmarshal"}},
	// core's TestRoundTripAcrossConstructedPair and
	// TestSerializeRoundTripAcrossWorkers: TestOracle decodes every kind
	// into fresh receivers and merges in memory. A level count check the
	// level merges back up is equivalent, and has no row.
	{id: "stack-core-unmarshal-drops-blob", group: "stack", file: "internal/core/serialize.go",
		old: "OnePassEstimator: %w\", err)\n\t}\n\treturn e.sk.UnmarshalBinary(blob)", new: "OnePassEstimator: %w\", err)\n\t}\n\t_ = blob\n\treturn nil",
		pkgs:    stackPkgs,
		killers: []string{"TestOracle", "TestAdvanceDuringRebuildIsNotLost", "TestAutoPullRebuildsWithoutDoubleCounting", "TestCheckpointTruncatedAtEveryOffset", "TestCheckpointerPeriodicAndFinal", "TestKillAndRestartE2E", "TestMembershipLoopsEndToEnd", "TestPullKeepsDeadWorkersLastSnapshot"}},
	{id: "stack-core-merge-ignored", group: "stack", file: "internal/core/merge.go",
		old: "return e.sk.Merge(other.sk)", new: "_ = other\n\treturn nil",
		pkgs:    stackPkgs,
		killers: []string{"TestDistributedTurnstileCancellation", "TestMergeOverflowRegimeCloseAgreement", "TestMergeRejectsMismatchedConfig", "TestProcessParallelTurnstilePairCancels", "TestShardAndMergeMatchesSinglePass", "TestOracle", "TestPublicEstimatorMergeExposed", "TestPublicShardedKindMatchesSerialExactly"}},
	// The stream generators (internal/workload): the guide-table sampler
	// and the open-addressed working set. TestGeneratorsPinned's -short
	// configs (the sweep's and a full domain) kill each row. Flipping
	// either `<` of the sampler to `<=` changes a rank only when a CDF
	// value equals a draw (or a slot bound) exactly; both flips passed the
	// whole pin, 2^20-update configs included, so they have no row.
	{id: "workload-guide-start-late", group: "workload", file: "internal/workload/generators.go",
		old: "s.guide[j] = int32(r)", new: "s.guide[j] = int32(min(r+1, last))",
		pkgs: []string{workloadPkg}, killers: []string{"TestGeneratorsPinned"}},
	{id: "workload-draw-slot-late", group: "workload", file: "internal/workload/generators.go",
		old: "min(int(u*float64(len(s.cdf))), last)", new: "min(int(u*float64(len(s.cdf)))+1, last)",
		pkgs: []string{workloadPkg}, killers: []string{"TestGeneratorsPinned"}},
	{id: "workload-draw-skips-scan", group: "workload", file: "internal/workload/generators.go",
		old: "for r < last && s.cdf[r] < u {", new: "for r < last && s.cdf[r] < u && false {",
		pkgs: []string{workloadPkg}, killers: []string{"TestGeneratorsPinned"}},
	// Item 0 stored as 0 reads as an empty slot: the full domain draws it
	// again and again.
	{id: "workload-set-stores-item", group: "workload", file: "internal/workload/workload.go",
		old: "key := it + 1", new: "key := it",
		pkgs: []string{workloadPkg}, killers: []string{"TestGeneratorsPinned"}},
	{id: "workload-set-keeps-repeats", group: "workload", file: "internal/workload/workload.go",
		old: "continue // drawn before", new: "// drawn before",
		pkgs: []string{workloadPkg}, killers: []string{"TestGeneratorsPinned"}},
}
