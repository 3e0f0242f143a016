// Package sweep is the scenario sweep engine behind `gsum sweep`: a
// config-file-driven matrix runner that crosses workload scenarios,
// ingestion backends, accuracy targets and worker counts into cells,
// fans the cells out across worker processes, and merges the per-cell JSON results into one
// deterministic markdown accuracy report.
//
// Layer: sweep sits above internal/workload (each cell is one RunBench
// invocation) and internal/backend (the sweep config embeds the
// canonical Spec JSON as the cell's estimator configuration); the CLI
// face is cmd/gsum's sweep subcommand.
//
// The contract mirrors the repository's test-first discipline:
//
//   - The cell list is a pure function of the Config — every process
//     that parses the same config file derives the same cells in the
//     same order, which is what lets single-cell worker invocations
//     (`gsum sweep -cell N`) and the merging parent agree by index.
//   - Every quantity in the default report is deterministic (estimates,
//     exact answers, point-query errors, space), so the report is
//     byte-identical across reruns of the same config; wall-clock
//     throughput is recorded in the per-cell files and shown only on
//     request.
//   - A cell that never reports — a crashed or killed worker — is
//     listed in the merge's Missing section by ID, never silently
//     dropped.
package sweep
