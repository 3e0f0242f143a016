// Package soak boots a real gsumd worker/coordinator topology
// in-process — real loopback listeners, the production daemon.Server
// HTTP surface, membership loops, Pushers over /v1/stream — and drives a
// sustained mixed workload against it while scraping every node's
// /metrics endpoint. The operational invariants are asserted from the
// scrapes themselves, the way an alerting rule would see them: every
// stream ack is backed by an applied update, the coordinator's
// rebuilt-from-snapshots aggregate counter only ever grows, the latency
// histograms fill in, the goroutine gauge settles back after quiesce,
// and the final pulled estimate is bit-identical to a serial estimator
// fed the same updates. Run is the whole harness; the soak test calls
// it short in CI and long (SOAK_DURATION) in the nightly job.
package soak
