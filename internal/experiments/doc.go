// Package experiments implements the paper-reproduction experiment suite
// E1-E15 indexed in EXPERIMENTS.md. Each experiment returns a Table whose rows
// regenerate the corresponding claim of the paper; the cmd/gsum binary and
// the root bench harness both render these tables, and EXPERIMENTS.md
// records a reference run.
//
// The paper is a theory paper with no measured tables, so the experiments
// materialize its claims: the zero-one-law classifications (E1, E12), the
// upper bounds as accuracy-vs-space curves (E2, E7, E9, E10), the
// 1-pass/2-pass separation (E3, E11), and the lower bounds as executable
// reductions whose undersized solvers demonstrably fail (E4, E5, E6).
//
// Layer: harness layer in ARCHITECTURE.md, alongside internal/workload;
// cmd/gsum experiments and bench_test.go are its front ends.
// Seed discipline: every experiment pins explicit seeds so EXPERIMENTS.md
// tables reproduce run to run.
package experiments
