// Package daemon implements gsumd, the distributed g-SUM aggregation
// service: an HTTP daemon (stdlib net/http only) wrapping one estimator
// resolved through the backend registry (backend.Open on the daemon's
// Spec). Because every registered kind is a linear sketch with a checked
// wire format, N worker daemons ingesting disjoint shards of a stream
// and one coordinator daemon merging their snapshots reproduce the
// single-machine estimate exactly — same seed, same bytes.
//
// Endpoints (all under /v1):
//
//	POST /v1/ingest    JSON {"updates": [[item, delta], ...]} — batched
//	                   turnstile updates through the unified Estimator;
//	                   the curl-friendly door (every Go client streams).
//	POST /v1/stream    upgrades the connection (hijack, 101 Switching
//	                   Protocols) to the persistent binary ingest stream:
//	                   length-prefixed wire ingest frames in, one ack per
//	                   frame out, sent only AFTER the batch is applied —
//	                   an ack is a durability receipt the graceful-drain
//	                   path honors (see stream.go and the Pusher).
//	GET  /v1/snapshot  the serialized sketch state (application/octet-stream).
//	POST /v1/merge     a serialized shard sketch to fold in (the body is a
//	                   /v1/snapshot payload from a worker with the same
//	                   Spec; the wire fingerprint is checked, 409 on drift).
//	GET  /v1/estimate  the estimate as JSON; extras depend on the kind's
//	                   capabilities (?g=<name> post-hoc queries on onepass,
//	                   sharded and window, 400 for a function whose
//	                   envelope the Spec's Options.Envelope does not cover;
//	                   ?item=<id> for countsketch point queries, cover
//	                   entries for heavy, clock fields for window).
//	POST /v1/advance   JSON {"tick": T} — move the window kind's tick
//	                   clock (past ticks are a no-op; kinds without a
//	                   clock answer 400).
//	GET  /v1/config    the daemon's normalized Spec, its fingerprint, and
//	                   ingest/space counters.
//	POST /v1/config    JSON {"fingerprint": F} — the pre-merge handshake:
//	                   200 when F matches this daemon's Spec fingerprint,
//	                   409 Conflict otherwise. Client.PullFromContext checks
//	                   every worker this way BEFORE pulling any snapshot, so a
//	                   drifted deployment fails with zero merges.
//	POST /v1/register  JSON {"addr": "http://worker:7601"} — a worker
//	                   announces itself to the coordinator's membership
//	                   registry (gsumd -register does this on boot).
//	GET  /v1/members   the membership table: each worker's address,
//	                   liveness, consecutive heartbeat misses, and
//	                   last-seen/last-pull timestamps.
//	GET  /healthz      liveness: 200 whenever the process can answer.
//	GET  /readyz       readiness: 200 only after the serving frontend
//	                   calls SetReady(true) (restore done, listener
//	                   bound) and 503 again once a drain begins — the
//	                   signal a load balancer routes on.
//	GET  /metrics      the full registry in Prometheus text format
//	                   (internal/metrics): ingest totals and batch sizes
//	                   per transport, merge/estimate/advance latency
//	                   histograms, checkpoint results, stream
//	                   connection/ack counters, membership gauges and
//	                   transitions, and scrape-time gauges (estimate,
//	                   space, window clock, the sharded kind's shard
//	                   count, goroutines, heap). Ingest-path
//	                   instruments are atomics; expensive values are
//	                   computed only at scrape time.
//
// The deployment topology mirrors the cmd/server + cmd/worker split of
// distributed work-queue systems: workers sit close to the traffic and
// absorb updates; the coordinator owns the query surface.
//
// Client is the typed HTTP client for all of the above; every verb is
// context-first (PushContext, EstimateContext, ...), and /v1/estimate
// responses decode into the typed EstimateResult the server itself
// encodes. Loopback serves a Server on a 127.0.0.1 port beside its
// Client: the in-process node of the bench runner and the soak.
// Pusher is the asynchronous push session (bounded queue, batching by
// size and age, backpressure instead of drops) over one /v1/stream
// connection; it is how every Go client ingests.
//
// Durability and self-healing: Server.WriteCheckpoint atomically
// persists the wire snapshot (temp file + fsync + rename) with the Spec
// fingerprint in the header, and RestoreCheckpoint refuses a file whose
// fingerprint differs from the live Spec — the same drift check as the
// handshake, enforced at a third point. Server.Membership runs the
// coordinator's heartbeat and auto-pull loops: workers join via
// /v1/register (or seeding), each heartbeat is a fingerprint handshake
// (liveness and drift in one probe), a worker is marked down after
// consecutive misses, and every pull round REBUILDS the aggregate from
// a fresh estimator plus all retained snapshots, so repeated pulls
// never double-count and a restarted worker is re-absorbed without
// operator action.
//
// Layer: the service layer of ARCHITECTURE.md — HTTP transport over the
// backend registry; cmd/gsumd is its thin main. Seed discipline: every
// daemon in one aggregation must be built from the same Spec (Seed
// included, and for the window kind the same tick sequence). The Spec
// fingerprint handshake rejects drift at /v1/config; the wire
// fingerprints re-check it at /v1/merge.
package daemon
