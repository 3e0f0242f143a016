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
)

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
// and the cover's unit tests can see. A row's comment names the deleted
// test it proves.
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

	// The daemon. TestOracle asks every kind, through the in-process and
	// JSON doors and the stream, for its point queries, a post-hoc
	// function, its cover's items and its window clock (the reads of the
	// five TestE2E*Backend tests, deleted with their cluster helpers) and
	// holds a refused /v1/merge to a 409, so the two /v1/merge refusal
	// tests have another killer too.
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
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle", "TestMergeRejectsMismatchedConfiguration", "TestRestoreRefusesDriftedFingerprint"}},
	{id: "daemon-merge-refusal-status", group: "daemon", file: "internal/daemon/daemon.go",
		old: "writeError(w, http.StatusConflict, err)", new: "writeError(w, http.StatusBadRequest, err)",
		pkgs: []string{daemonPkg}, killers: []string{"TestOracle", "TestRefusedMergeLeavesTheAggregate"}},
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
	// failSend not waiting for the ack reader loses the refusal's reason
	// to the reset only when the reset wins a race:
	// TestPusherRefusalReasonBeatsReset killed it in two ledger runs of
	// three, so it has no row.
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
}
