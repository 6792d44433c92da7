// Command teaserve runs the TeaLeaf solver as a long-lived HTTP service:
// clients POST tea.in decks (or benchmark names) to /v1/solve, a bounded
// priority queue with weighted-fair admission feeds a worker pool that
// schedules jobs least-loaded across a pool of registered versions, and the
// service publishes live Prometheus metrics at /metrics, Chrome trace-event
// spans at /debug/trace and the standard pprof handlers at /debug/pprof/.
//
// The request plane dedupes work before it reaches a solver: results are
// cached content-addressed (the canonical hash of the parsed deck, so
// formatting differences still hit), concurrent identical submissions
// collapse onto one in-flight solve, and small decks queued together
// micro-batch onto one worker's port. Clients can follow a job live at
// GET /v1/jobs/{id}/events (SSE, with a ?poll=1 long-poll fallback).
// SIGINT/SIGTERM drains gracefully: admission stops at once, in-flight and
// queued jobs run to completion, then the listener closes.
//
// With -state-dir the job plane is crash-safe: every accepted job is fsynced
// to an append-only journal before the 202, and the next start (same
// -state-dir) replays it — finished jobs reappear in /v1/jobs, jobs the
// crash interrupted are re-admitted and resume from their last on-disk
// checkpoint (fleet jobs from their -fleet-dir state).
//
// Examples:
//
//	teaserve -addr :8080
//	teaserve -addr :8080 -workers 8 -queue 32 -versions manual-serial,manual-omp
//	teaserve -addr :8080 -default-deadline 2m -checkpoint-every 5 -max-retries 3
//	teaserve -addr :8080 -cache-size 1024 -cache-ttl 1h -retain-jobs 10000
//	teaserve -addr :8080 -fleet-worker-bin ./tealeaf-worker -fleet-workers 4 -fleet-dir /var/lib/tealeaf/fleet
//	teaserve -addr :8080 -state-dir /var/lib/tealeaf/state -checkpoint-every 5
//
//	curl -s -X POST localhost:8080/v1/solve -d '{"benchmark": "bm_250"}'
//	curl -s -X POST localhost:8080/v1/solve -d '{"benchmark": "bm_250", "fleet": true}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -sN localhost:8080/v1/jobs/job-000001/events
//
// See docs/OPERATIONS.md for the full API, flag and metrics reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/fleet"
	"github.com/warwick-hpsc/tealeaf-go/internal/obs"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/serve"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "teaserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		queue    = flag.Int("queue", 16, "bounded job queue depth; a full queue rejects with 429")
		workers  = flag.Int("workers", 2, "concurrent solves; each worker runs one job on its own port instance")
		versions = flag.String("versions", "manual-serial", "comma-separated scheduling pool for unpinned jobs; -sched picks the arbitration policy")
		sched    = flag.String("sched", serve.SchedPredictive, "version-pick policy for unpinned jobs: predictive (least predicted completion time, model-derived tuning hints) or leastloaded (legacy job-count fallback)")
		benchDir = flag.String("bench-dir", "", "seed the solve-time predictor from the BENCH_*.json artefacts in this directory at startup (empty: cold-start from the static machine models)")
		threads  = flag.Int("threads", 0, "threads per process/team for every job's port (0: all cores)")
		ranks    = flag.Int("ranks", 0, "ranks for distributed versions (0: 4)")
		blockX   = flag.Int("blockx", 0, "GPU kernel block width (0: version default)")
		blockY   = flag.Int("blocky", 0, "GPU kernel block height")
		tileX    = flag.Int("tile-x", 0, "OPS tile width (0: default)")
		tileY    = flag.Int("tile-y", 0, "OPS tile height")

		cacheSize     = flag.Int("cache-size", 256, "content-addressed result cache entries; identical decks return the stored result (0: off, also disables singleflight)")
		cacheTTL      = flag.Duration("cache-ttl", 0, "result cache entry lifetime (0: entries live until LRU eviction)")
		batchMaxCells = flag.Int("batch-max-cells", 16384, "decks at or below this cell count may share one worker dispatch and port (0: micro-batching off)")
		batchMaxJobs  = flag.Int("batch-max-jobs", 4, "most jobs coalesced into one micro-batch")
		retainJobs    = flag.Int("retain-jobs", 4096, "finished jobs kept for /v1/jobs before the oldest are evicted")
		retainAge     = flag.Duration("retain-age", 0, "finished jobs older than this are evicted regardless of count (0: no age bound)")

		fleetWorkers    = flag.Int("fleet-workers", 3, "default worker processes per fleet job (jobs may override with fleet_workers)")
		fleetWorkerBin  = flag.String("fleet-worker-bin", "", "path to the tealeaf-worker binary; empty disables fleet jobs")
		fleetDir        = flag.String("fleet-dir", "", "root directory for fleet job state (deck, checkpoint, sockets), one subdirectory per job; empty uses temp dirs (fleet jobs then not resumable after drain)")
		fleetHeartbeat  = flag.Duration("fleet-heartbeat", 0, "mesh-transport heartbeat interval between fleet workers (0: comm default)")
		fleetHBTimeout  = flag.Duration("fleet-heartbeat-timeout", 0, "silence window before a fleet worker's peers declare it lost (0: comm default)")
		fleetMaxMigrate = flag.Int("fleet-max-migrations", 3, "checkpoint migrations a fleet job may take before giving up")
		fleetDegrade    = flag.Bool("fleet-degrade", false, "shrink the fleet by one worker per migration instead of replacing the lost one")

		stateDir      = flag.String("state-dir", "", "durable job-plane root: accepted jobs are journaled (fsynced before the 202) and replayed on the next start, resuming interrupted work; empty keeps the job plane in memory")
		resumeBudget  = flag.Int("resume-budget", 3, "dispatch attempts one journaled job may take across restarts before replay fails it instead of resuming")
		resumeBackoff = flag.Duration("resume-backoff", 2*time.Second, "base of the full-jittered delay before re-dispatching a job that was mid-solve at the crash")

		defaultDeadline = flag.Duration("default-deadline", 0, "wall-clock budget for jobs that set none (0: unbounded)")
		ckEvery         = flag.Int("checkpoint-every", 0, "default steps between in-memory recovery checkpoints (0: resilience off)")
		maxRetries      = flag.Int("max-retries", 3, "default consecutive failed step attempts before a job gives up")
		backoff         = flag.Duration("backoff", 0, "base delay before a job's first retry, doubling per retry")
		traceSpans      = flag.Int("trace-spans", obs.DefaultTraceSpans, "span ring-buffer capacity for /debug/trace (oldest dropped first)")
		drainTimeout    = flag.Duration("drain-timeout", 0, "bound on graceful drain at shutdown (0: wait for every job)")
		quiet           = flag.Bool("quiet", false, "suppress the per-step solver log of running jobs")
		list            = flag.Bool("list", false, "list schedulable versions, then exit")
	)
	flag.Parse()

	if *list {
		for _, v := range registry.All() {
			fmt.Printf("%-20s %-7s %-16s %s\n", v.Name, v.Group, v.Model, v.Notes)
		}
		return nil
	}

	var pool []string
	for _, v := range strings.Split(*versions, ",") {
		if v = strings.TrimSpace(v); v != "" {
			pool = append(pool, v)
		}
	}
	opts := serve.Options{
		QueueSize: *queue,
		Workers:   *workers,
		Versions:  pool,
		Sched:     *sched,
		BenchDir:  *benchDir,
		Params: registry.Params{
			Threads: *threads,
			Ranks:   *ranks,
			Block:   simgpu.Dim2{X: *blockX, Y: *blockY},
			TileX:   *tileX,
			TileY:   *tileY,
		},
		CacheSize:       *cacheSize,
		CacheTTL:        *cacheTTL,
		BatchMaxCells:   *batchMaxCells,
		BatchMaxJobs:    *batchMaxJobs,
		RetainJobs:      *retainJobs,
		RetainAge:       *retainAge,
		StateDir:        *stateDir,
		ResumeBudget:    *resumeBudget,
		ResumeBackoff:   *resumeBackoff,
		DefaultDeadline: *defaultDeadline,
		Recovery: driver.RecoveryPolicy{
			CheckpointEvery: *ckEvery,
			MaxRetries:      *maxRetries,
			Backoff:         *backoff,
		},
		Tracer: obs.NewTracer(*traceSpans),
	}
	if *fleetWorkerBin != "" {
		opts.Fleet = fleet.Options{
			Workers:           *fleetWorkers,
			Threads:           *threads,
			WorkerCommand:     []string{*fleetWorkerBin},
			Dir:               *fleetDir,
			MaxMigrations:     *fleetMaxMigrate,
			Degrade:           *fleetDegrade,
			HeartbeatInterval: *fleetHeartbeat,
			HeartbeatTimeout:  *fleetHBTimeout,
		}
	}
	if !*quiet {
		opts.Log = os.Stdout
	}
	s, err := serve.New(opts)
	if err != nil {
		return err
	}
	if *stateDir != "" {
		r := s.Replay()
		fmt.Printf("teaserve: journal replayed %d records from %d segments (torn tail: %v): %d jobs (%d finished, %d resumed, %d over resume budget, %d dropped)\n",
			r.Records, r.Segments, r.Torn, r.Jobs, r.Finished, r.Resumed, r.GaveUp, r.Dropped)
	}

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("teaserve listening on %s  workers=%d queue=%d sched=%s versions=%s\n",
			*addr, opts.Workers, opts.QueueSize, opts.Sched, strings.Join(opts.Versions, ","))
		errc <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err // listener died; jobs in flight are abandoned with the process
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Println("teaserve: draining (in-flight and queued jobs run to completion)...")
	dctx := context.Background()
	if *drainTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, *drainTimeout)
		defer cancel()
	}
	drainErr := s.Drain(dctx)
	// The listener closes only after the pool idles, so /v1/jobs and
	// /metrics stay scrapable through the drain window.
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Println("teaserve: drained cleanly")
	return nil
}
