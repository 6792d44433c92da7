// Package serve turns the TeaLeaf solve pipeline into a long-running
// service: a bounded job queue with admission control, a worker pool that
// schedules solves across the registered backend versions (pick-by-name or
// by predicted completion time), per-job deadlines and resilience policies
// riding the driver's checkpoint/rollback machinery, and graceful drain. It
// publishes live metrics and per-kernel trace spans through internal/obs and
// exposes the whole thing over HTTP (POST /v1/solve, GET /v1/jobs/{id},
// /healthz, /metrics, /debug/trace); cmd/teaserve is the binary around it.
// Every job state change is one edge of the lifecycle in lifecycle.go.
//
// Concurrency and ownership: a Server owns its queue, its job table and its
// worker goroutines. Submit may be called from any goroutine (HTTP handlers
// call it concurrently); jobs are handed to exactly one worker, and each
// worker owns its job's port instance (built fresh per job via
// internal/registry, closed when the job ends) — ports are never shared
// between jobs, so the per-port determinism contract holds per solve.
// JobStatus values returned by Job/Jobs/Submit are snapshots; the live
// record stays inside the server. Drain stops admission immediately
// (submissions get ErrDraining), lets queued and in-flight jobs finish, and
// returns when the pool is idle or its context expires.
package serve
