package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/chaos"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/fleet"
	"github.com/warwick-hpsc/tealeaf-go/internal/obs"
	"github.com/warwick-hpsc/tealeaf-go/internal/perfmodel"
	"github.com/warwick-hpsc/tealeaf-go/internal/profiler"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/serve/journal"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// Typed admission errors. The HTTP layer maps ErrQueueFull to 429 and
// ErrDraining to 503; programmatic callers test with errors.Is.
var (
	// ErrQueueFull rejects a submission because the bounded queue is at
	// capacity — the admission-control backpressure signal.
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining rejects a submission because the server is shutting down.
	ErrDraining = errors.New("serve: server is draining")
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: accepted, waiting for a worker (or, for a coalesced
	// job, for the in-flight identical solve it attached to).
	StateQueued State = "queued"
	// StateRunning: a worker is solving it.
	StateRunning State = "running"
	// StateDone: completed successfully; Result is final.
	StateDone State = "done"
	// StateExpired: the per-job deadline fired; Result holds the partial
	// stats accumulated before expiry.
	StateExpired State = "expired"
	// StateFailed: the solve errored past every recovery; Result holds
	// whatever partial stats exist and Error the cause chain.
	StateFailed State = "failed"
	// StateInterrupted: server shutdown cut the job off mid-flight. Not
	// terminal — with a state directory configured the journal still holds
	// the job, and the next server start re-admits and resumes it (from
	// its last checkpoint when it has one).
	StateInterrupted State = "interrupted"
)

// finished reports whether a state is terminal. Interrupted is deliberately
// not: an interrupted job is awaiting resume by the next server process.
func (st State) finished() bool {
	return st == StateDone || st == StateExpired || st == StateFailed
}

// Duration is a time.Duration that marshals as a Go duration string
// ("30s", "1m30s") so job specs read naturally as JSON; it also accepts a
// bare number of nanoseconds on input.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("serve: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// JobSpec is one solve request: what to solve (a tea.in deck or a built-in
// benchmark), which version to run it on, and the job's deadline and
// resilience policy. The zero value of every policy field inherits the
// server's defaults.
type JobSpec struct {
	// Deck is a complete tea.in input deck (the *tea ... *endtea text).
	// Exactly one of Deck and Benchmark must be set.
	Deck string `json:"deck,omitempty"`
	// Benchmark names a built-in deck, e.g. "bm_250" (see config.BenchmarkNames).
	Benchmark string `json:"benchmark,omitempty"`
	// Version pins the job to one registry version by name ("manual-omp",
	// "ops-mpi-tiled", ...). Empty lets the scheduler pick from the server's
	// configured version pool.
	Version string `json:"version,omitempty"`
	// Priority is the admission tier: "high", "normal" (the default) or
	// "low". Dispatch is weighted-fair 4:2:1 across tiers, FIFO within
	// one — priority buys share, not starvation of the tiers below.
	Priority string `json:"priority,omitempty"`
	// Deadline bounds the job's wall clock; on expiry the job ends in
	// StateExpired with partial stats. 0 inherits the server default.
	Deadline Duration `json:"deadline,omitempty"`
	// CheckpointEvery overrides the server's recovery policy interval for
	// this job (steps between rollback checkpoints; 0 inherits).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// MaxRetries overrides the consecutive failed-step budget (0 inherits).
	MaxRetries int `json:"max_retries,omitempty"`
	// SDCCheckEvery arms the solver's ABFT invariant monitor at this
	// iteration cadence (0 off).
	SDCCheckEvery int `json:"sdc_check_every,omitempty"`
	// Fallback is the solver degradation chain on CG breakdown, e.g.
	// ["jacobi"].
	Fallback []string `json:"fallback,omitempty"`
	// FaultSpec injects a deterministic chaos schedule ("nan@2.3;panic@4.1",
	// see internal/chaos) into this job — for resilience drills against a
	// live service. A fault the job's recovery policy cannot absorb fails
	// the job, never the server. Fault-injected jobs bypass the result
	// cache and singleflight entirely. On a fleet job the grammar is the
	// transport fault schedule instead ("killproc:rank=1,op=40", see
	// internal/comm) and is installed on the first fleet's worlds.
	FaultSpec string `json:"fault_spec,omitempty"`
	// Fleet runs the job across a supervised fleet of worker OS processes
	// (one rank each, socket transport, checkpoint-based migration on
	// worker death) instead of an in-process registry port. Requires the
	// server to be started with Options.Fleet configured; fleet jobs cannot
	// pin a Version and bypass the result cache and singleflight.
	Fleet bool `json:"fleet,omitempty"`
	// FleetWorkers overrides the server's default fleet size for this job
	// (0 inherits). Only meaningful with Fleet set.
	FleetWorkers int `json:"fleet_workers,omitempty"`
}

// JobResult is the outcome of a finished (done, expired or failed) job.
type JobResult struct {
	Steps           int     `json:"steps"`
	TotalIterations int     `json:"total_iterations"`
	Converged       bool    `json:"converged"`
	Volume          float64 `json:"volume"`
	Mass            float64 `json:"mass"`
	InternalEnergy  float64 `json:"internal_energy"`
	Temperature     float64 `json:"temperature"`
	Recoveries      int     `json:"recoveries"`
	SDCDetected     int     `json:"sdc_detected"`
	SDCRecovered    int     `json:"sdc_recovered"`
	WallSeconds     float64 `json:"wall_seconds"`
	// Partial marks stats cut short by deadline expiry or failure: the
	// field summary reflects the last completed step, not convergence.
	Partial bool `json:"partial,omitempty"`
	// Fleet-job outcome: how many checkpoint migrations the supervised
	// fleet took, how many worker processes finished the job, and whether
	// it finished degraded (smaller than it started).
	Migrations    int  `json:"migrations,omitempty"`
	FleetWorkers  int  `json:"fleet_workers,omitempty"`
	FleetDegraded bool `json:"fleet_degraded,omitempty"`
}

// JobStatus is a point-in-time snapshot of a job's lifecycle.
type JobStatus struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	Version   string     `json:"version,omitempty"` // resolved at admission
	Submitted time.Time  `json:"submitted"`
	Started   time.Time  `json:"started"`
	Finished  time.Time  `json:"finished"`
	Error     string     `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	// Cached marks a job served from the content-addressed result cache
	// without a solve; Coalesced marks one completed from an identical
	// in-flight solve it was collapsed onto (singleflight).
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
}

// job is the server-side record. Everything below the identity fields is
// lifecycle state: guarded by Server.mu and written only by moveLocked
// (version, key and flight are resolved before the job's first edge). status
// is also guarded by mu, so handlers can snapshot it without Server.mu.
type job struct {
	mu       sync.Mutex
	id       string // immutable copy of status.ID, readable without the lock
	seq      int
	spec     JobSpec
	cfg      config.Config
	cfgHash  string
	progress *progress
	// resumed marks a job re-admitted by journal replay; it is set before the
	// worker pool starts and read-only after.
	resumed bool

	version string  // resolved registry version
	key     string  // cache/singleflight key; "" when uncacheable
	flight  *flight // singleflight this job leads or follows; nil otherwise
	phase   phase
	status  JobStatus
	// attempt counts dispatch attempts across server restarts.
	attempt int
	// predSec is the predicted solve seconds charged against the version
	// when the job last took a version slot.
	predSec float64
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	if j.status.Result != nil {
		r := *j.status.Result
		st.Result = &r
	}
	return st
}

// cells is the job's mesh size, the micro-batching admission measure.
func (j *job) cells() int { return j.cfg.NX * j.cfg.NY }

// flight is one in-flight solve that identical submissions collapse onto:
// the leader runs, followers wait and complete from its result (see
// settleFlightLocked). It is in Server.flights exactly while it has a
// leader. Guarded by Server.mu.
type flight struct {
	key       string
	followers []*job
}

// Options configures a Server. The zero value serves manual-serial with a
// small queue, no caching, no batching and no resilience — sensible for
// tests; cmd/teaserve wires every field from flags.
type Options struct {
	// QueueSize bounds the number of accepted-but-unstarted jobs (<= 0: 16).
	// A full queue rejects submissions with ErrQueueFull. Cache hits and
	// coalesced jobs never occupy a slot.
	QueueSize int
	// Workers is the solve concurrency (<= 0: 2). Each worker runs one job
	// (or one micro-batch) at a time on its own port instance.
	Workers int
	// Versions is the scheduling pool for jobs that do not pin a version:
	// each goes to the member with the least predicted outstanding work,
	// and model-derived batching/tiling/block hints apply. Jobs may still
	// pin any registered version by name. Empty defaults to
	// ["manual-serial"].
	Versions []string
	// Sched names the version-pick policy. SchedPredictive is the only one,
	// and "" means the same; New rejects anything else. The field is kept
	// only because the repository's benchmark sets it, and goes with the
	// next change to the benchmark.
	Sched string
	// BenchDir, when set, seeds the predictor at startup from the
	// teabench -json artefacts (BENCH_*.json) found there, so a fresh
	// server starts from this host's measured rates instead of the paper
	// priors.
	BenchDir string
	// Params carries thread/rank/block knobs into every port build.
	Params registry.Params
	// DefaultDeadline bounds jobs that do not set one (0: unbounded).
	DefaultDeadline time.Duration
	// Recovery is the per-job resilience template (checkpoint interval,
	// retry budget, backoff). CheckpointPath and Resume are per-process
	// file concerns and are ignored per job: jobs checkpoint in memory.
	Recovery driver.RecoveryPolicy
	// CacheSize bounds the content-addressed result cache (entries).
	// <= 0 disables caching AND singleflight collapsing — the zero value
	// keeps the pre-cache behaviour where every submission solves.
	CacheSize int
	// CacheTTL expires cached results by age (0: never). Expired entries
	// count as teaserve_cache_evictions_total{reason="ttl"}.
	CacheTTL time.Duration
	// BatchMaxCells enables micro-batching: queued jobs whose mesh is at
	// most this many cells may be coalesced onto one worker dispatch,
	// reusing a single port (one par.Team spin-up) across the batch.
	// <= 0 disables batching.
	BatchMaxCells int
	// BatchMaxJobs caps jobs per micro-batch (<= 0: 4 when batching on).
	BatchMaxJobs int
	// RetainJobs bounds finished jobs kept in the store (<= 0: 4096).
	// Queued and running jobs are never evicted.
	RetainJobs int
	// RetainAge evicts finished jobs older than this (0: no age bound).
	RetainAge time.Duration
	// Fleet configures the multi-process fleet path for jobs that set
	// JobSpec.Fleet: worker binary, default fleet size, heartbeat and
	// migration tuning (fleet.Options semantics). Fleet jobs are enabled
	// when WorkerCommand is non-empty; FaultSpec is always per-job and any
	// value here is ignored. Fleet.Dir, when set, roots one subdirectory
	// per job (which is what makes drained fleet jobs resumable by an
	// operator); empty uses a fresh temp dir per job.
	Fleet fleet.Options
	// StateDir, when set, makes the job plane crash-safe: every accepted
	// job is recorded in an append-only journal under StateDir/journal
	// (fsynced before Submit acknowledges), per-job recovery checkpoints
	// are mirrored to StateDir/ckpt/<job-id>, and New replays the journal
	// to rebuild the job store and auto-resume interrupted work. Empty
	// keeps the job plane in-memory (a restart forgets everything).
	// Exactly one server may use a StateDir at a time.
	StateDir string
	// ResumeBudget bounds how many dispatch attempts one job may take
	// across restarts before replay fails it with a typed error instead of
	// resuming again (<= 0: 3). It exists so a job that crashes the server
	// cannot crash-loop it forever.
	ResumeBudget int
	// ResumeBackoff is the base of the full-jittered exponential delay
	// before re-dispatching a resumed job that had already started when
	// the server died (driver.BackoffDelay semantics; 0: 2s). Jobs that
	// never started resume immediately.
	ResumeBackoff time.Duration
	// Metrics receives the serve-layer metrics; nil creates a private
	// registry (exposed at /metrics either way).
	Metrics *obs.Registry
	// Tracer receives job and kernel spans; nil creates a private tracer
	// with the default span capacity (exposed at /debug/trace either way).
	Tracer *obs.Tracer
	// Log, when set, receives the per-step driver log of every job.
	Log io.Writer
}

// metrics is the serve-layer instrument set; see docs/OPERATIONS.md for the
// exported-name reference table.
type metrics struct {
	submitted  *obs.Counter
	rejected   *obs.Counter
	completed  *obs.Counter
	expired    *obs.Counter
	failed     *obs.Counter
	latency    *obs.Histogram
	steps      *obs.Counter
	iterations *obs.Counter
	recoveries *obs.Counter
	sdcFound   *obs.Counter
	sdcFixed   *obs.Counter

	// Request-plane v2: cache, singleflight, batching, retention.
	solves      *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	cacheEvLRU  *obs.Counter
	cacheEvTTL  *obs.Counter
	followers   *obs.Counter
	batches     *obs.Counter
	batchJobs   *obs.Counter
	jobsEvicted *obs.Counter

	// Perf-model scheduling: decision counters and prediction error.
	schedPredictive *obs.Counter
	schedPinned     *obs.Counter
	predError       *obs.Histogram

	// Fleet mode: supervised multi-process jobs.
	fleetJobs       *obs.Counter
	fleetMigrations *obs.Counter
	fleetWorkers    *obs.Gauge
	fleetDegraded   *obs.Gauge

	// Durable job plane: journal, replay and resume.
	interrupted        *obs.Counter
	journalRecords     *obs.Counter
	journalBytes       *obs.Counter
	journalSyncs       *obs.Counter
	journalErrors      *obs.Counter
	journalCompactions *obs.Counter
	journalReplayed    *obs.Counter
	resumed            *obs.Counter
	resumeGaveUp       *obs.Counter
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		submitted:  r.Counter("teaserve_jobs_submitted_total", "jobs accepted into the queue"),
		rejected:   r.Counter("teaserve_jobs_rejected_total", "submissions rejected (queue full or draining)"),
		completed:  r.Counter("teaserve_jobs_completed_total", "jobs finished successfully"),
		expired:    r.Counter("teaserve_jobs_expired_total", "jobs ended by deadline expiry with partial stats"),
		failed:     r.Counter("teaserve_jobs_failed_total", "jobs that errored past every recovery"),
		latency:    r.Histogram("teaserve_solve_seconds", "wall-clock seconds of solves that ran to done (cache hits and singleflight followers do not solve)", nil),
		steps:      r.Counter("teaserve_steps_total", "time steps completed across all jobs"),
		iterations: r.Counter("teaserve_cg_iterations_total", "solver iterations performed across all jobs"),
		recoveries: r.Counter("teaserve_recoveries_total", "checkpoint rollbacks taken across all jobs"),
		sdcFound:   r.Counter("teaserve_sdc_detected_total", "silent-data-corruption detections across all jobs"),
		sdcFixed:   r.Counter("teaserve_sdc_recovered_total", "SDC detections repaired by rollback-and-replay"),

		solves: r.Counter("teaserve_solves_total",
			"underlying solver invocations; stays below the job counters when the cache and singleflight collapse identical work"),
		cacheHits: r.Counter("teaserve_cache_hits_total",
			"submissions completed from the content-addressed result cache"),
		cacheMisses: r.Counter("teaserve_cache_misses_total",
			"cacheable submissions that found no cached or in-flight result"),
		cacheEvLRU: r.Counter(`teaserve_cache_evictions_total{reason="lru"}`,
			"cache entries evicted by the size bound"),
		cacheEvTTL: r.Counter(`teaserve_cache_evictions_total{reason="ttl"}`,
			"cache entries evicted by age"),
		followers: r.Counter("teaserve_singleflight_followers_total",
			"submissions completed by collapsing onto an identical in-flight solve"),
		batches: r.Counter("teaserve_batches_total",
			"multi-job micro-batch dispatches (small same-version decks sharing one port)"),
		batchJobs: r.Counter("teaserve_batch_jobs_total",
			"jobs dispatched inside multi-job micro-batches"),
		jobsEvicted: r.Counter("teaserve_jobs_evicted_total",
			"finished jobs evicted from the store by the retention bounds"),

		schedPredictive: r.Counter(`teaserve_sched_decisions_total{policy="predictive"}`,
			"unpinned version picks made by predicted completion time"),
		schedPinned: r.Counter(`teaserve_sched_decisions_total{policy="pinned"}`,
			"scheduling decisions dictated by a job's pinned version"),
		predError: r.Histogram("teaserve_sched_prediction_error_ratio",
			"relative solve-time prediction error |predicted-actual|/actual of completed solves",
			[]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}),

		fleetJobs: r.Counter("teaserve_fleet_jobs_total",
			"jobs dispatched onto a supervised multi-process worker fleet"),
		fleetMigrations: r.Counter("teaserve_fleet_migrations_total",
			"checkpoint-based fleet migrations taken after worker deaths, across all fleet jobs"),
		fleetWorkers: r.Gauge("teaserve_fleet_workers",
			"worker processes that finished the most recent fleet job"),
		fleetDegraded: r.Gauge("teaserve_fleet_degraded",
			"1 when the most recent fleet job finished on a degraded (shrunken) fleet; fails /readyz"),

		interrupted: r.Counter("teaserve_jobs_interrupted_total",
			"jobs cut off by server shutdown; with a state dir they resume on the next start"),
		journalRecords: r.Counter("teaserve_journal_records_total",
			"records appended to the job journal"),
		journalBytes: r.Counter("teaserve_journal_bytes_total",
			"bytes appended to the job journal"),
		journalSyncs: r.Counter("teaserve_journal_syncs_total",
			"journal fsync batches (group commit: one sync covers many appends)"),
		journalErrors: r.Counter("teaserve_journal_errors_total",
			"journal append/compact failures; non-zero means durability is degraded"),
		journalCompactions: r.Counter("teaserve_journal_compactions_total",
			"journal compactions (old segments replaced by a live-state snapshot)"),
		journalReplayed: r.Counter("teaserve_journal_replayed_records_total",
			"journal records recovered by startup replay"),
		resumed: r.Counter("teaserve_resumed_jobs_total",
			"unfinished journaled jobs re-admitted by startup replay"),
		resumeGaveUp: r.Counter("teaserve_resume_gaveup_total",
			"journaled jobs failed at replay because their resume budget was exhausted"),
	}
}

// SchedPredictive is the one scheduling policy (see Options.Sched): unpinned
// jobs go by predicted completion time, with model-derived tuning hints.
const SchedPredictive = "predictive"

// Server is a running solve service. Create with New, stop with Drain (or
// Close); all exported methods are safe for concurrent use.
type Server struct {
	opts   Options
	reg    *obs.Registry
	tracer *obs.Tracer
	met    metrics

	sched *sched
	wg    sync.WaitGroup

	// Durable job plane (all nil/zero without Options.StateDir). intCtx is
	// the interrupt context every job context derives from: Drain cancels
	// it (cause errInterrupted) when its budget expires, turning in-flight
	// jobs into resumable interruptions instead of hostages. resumeWG
	// tracks the delayed-resume timers replay schedules.
	jnl       *journal.Writer
	replay    ReplaySummary
	intCtx    context.Context
	intCancel context.CancelCauseFunc
	drainCh   chan struct{}
	drainOnce sync.Once
	resumeWG  sync.WaitGroup
	jnlOnce   sync.Once
	compactMu sync.Mutex // at most one compaction renders at a time

	mu       sync.Mutex // guards the job store, the lifecycle fields of every job and admission
	draining bool
	// fleetDegraded latches when a fleet job last finished on a shrunken
	// fleet — the service lost solve capacity it was configured for — and
	// clears when a later fleet job finishes at full size. Readiness
	// (/readyz) fails while set; liveness (/healthz) does not.
	fleetDegraded bool
	jobs          map[string]*job
	// retained is the retention index: the finished jobs in the store, in
	// the order they finished. The retention bounds pop from its head.
	retained []*job
	phases   [numPhases]int     // jobs per phase, for the queue and in-flight gauges
	seq      int                // last job sequence number handed out
	ledger   map[string]verLoad // per-version outstanding work, what the scheduler balances
	flights  map[string]*flight // key -> in-flight solve identical submissions collapse onto
	cache    *resultCache       // nil when Options.CacheSize <= 0

	// pred is the live solve-time model: fitted from every successful
	// solve, consulted by the scheduler and the portability dashboard. It
	// has its own lock.
	pred *perfmodel.Predictor
}

// New validates the options, starts the worker pool and returns the server.
func New(opts Options) (*Server, error) {
	if opts.QueueSize <= 0 {
		opts.QueueSize = 16
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if len(opts.Versions) == 0 {
		opts.Versions = []string{"manual-serial"}
	}
	for _, name := range opts.Versions {
		if _, err := registry.Get(name); err != nil {
			return nil, fmt.Errorf("serve: version pool: %w", err)
		}
	}
	if opts.BatchMaxCells > 0 && opts.BatchMaxJobs <= 0 {
		opts.BatchMaxJobs = 4
	}
	if opts.Sched != "" && opts.Sched != SchedPredictive {
		return nil, fmt.Errorf("serve: unknown scheduling policy %q (the one policy is %s)", opts.Sched, SchedPredictive)
	}
	if opts.RetainJobs <= 0 {
		opts.RetainJobs = 4096
	}
	if opts.ResumeBudget <= 0 {
		opts.ResumeBudget = 3
	}
	if opts.ResumeBackoff <= 0 {
		opts.ResumeBackoff = 2 * time.Second
	}
	// A shared checkpoint file path would have concurrent jobs overwrite
	// each other's recovery points; per-job paths are derived from StateDir
	// inside solve instead.
	opts.Recovery.CheckpointPath = ""
	opts.Recovery.Resume = false
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	if opts.Tracer == nil {
		opts.Tracer = obs.NewTracer(0)
	}
	intCtx, intCancel := context.WithCancelCause(context.Background())
	s := &Server{
		opts:      opts,
		reg:       opts.Metrics,
		tracer:    opts.Tracer,
		met:       newMetrics(opts.Metrics),
		sched:     newSched(opts.QueueSize),
		intCtx:    intCtx,
		intCancel: intCancel,
		drainCh:   make(chan struct{}),
		jobs:      make(map[string]*job),
		ledger:    make(map[string]verLoad),
		flights:   make(map[string]*flight),
		pred:      perfmodel.NewPredictor(),
	}
	if opts.BenchDir != "" {
		s.pred.LoadBenchDir(opts.BenchDir)
	}
	if opts.CacheSize > 0 {
		s.cache = newResultCache(opts.CacheSize, opts.CacheTTL)
	}
	s.reg.GaugeFunc("teaserve_cache_size", "entries in the content-addressed result cache",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.len())
		})
	s.reg.GaugeFunc("tealeaf_trace_dropped_spans", "spans evicted from the trace ring buffer; a non-zero value means /debug/trace exports a window, not the whole run",
		func() float64 { return float64(s.tracer.Dropped()) })
	s.reg.GaugeFunc("teaserve_jobs_inflight", "jobs currently being solved", s.census(phRunning))
	s.reg.GaugeFunc("teaserve_queue_depth", "jobs accepted but not yet started", s.census(phQueued))
	s.registerPortabilityGauges()
	if opts.StateDir != "" {
		// Replay happens before any worker starts: the rebuilt store and the
		// resume queue are fully consistent by the time dispatch begins.
		if err := s.openJournal(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics returns the registry the server publishes into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Tracer returns the span tracer the server records into.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// solverKindNamed maps a tea.in solver keyword to its kind, for fallback
// chain validation.
func solverKindNamed(name string) (config.SolverKind, error) {
	switch name {
	case "cg":
		return config.SolverCG, nil
	case "jacobi":
		return config.SolverJacobi, nil
	case "chebyshev":
		return config.SolverChebyshev, nil
	case "ppcg":
		return config.SolverPPCG, nil
	default:
		return 0, fmt.Errorf("serve: unknown fallback solver %q (want cg, jacobi, chebyshev or ppcg)", name)
	}
}

// resolveSpec turns a spec into a validated run configuration, rejecting
// malformed requests before they consume a queue slot.
func resolveSpec(spec JobSpec) (config.Config, error) {
	var cfg config.Config
	var err error
	switch {
	case spec.Deck != "" && spec.Benchmark != "":
		return cfg, errors.New("serve: deck and benchmark are mutually exclusive")
	case spec.Deck != "":
		cfg, err = config.ParseReader(strings.NewReader(spec.Deck))
	case spec.Benchmark != "":
		cfg, err = config.Benchmark(spec.Benchmark)
	default:
		return cfg, errors.New("serve: job needs a deck or a benchmark name")
	}
	if err != nil {
		return cfg, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if spec.Version != "" {
		if _, err := registry.Get(spec.Version); err != nil {
			return cfg, err
		}
	}
	switch spec.Priority {
	case "", "normal", "high", "low":
	default:
		return cfg, fmt.Errorf("serve: unknown priority %q (want high, normal or low)", spec.Priority)
	}
	for _, f := range spec.Fallback {
		if _, err := solverKindNamed(f); err != nil {
			return cfg, err
		}
	}
	if spec.FaultSpec != "" {
		// The two fault grammars are distinct: kernel-level chaos faults for
		// in-process jobs, transport faults (killproc, partition, slowlink)
		// for fleet jobs.
		if spec.Fleet {
			if _, err := comm.ParseSpec(spec.FaultSpec); err != nil {
				return cfg, err
			}
		} else if _, err := chaos.ParseSpec(spec.FaultSpec); err != nil {
			return cfg, err
		}
	}
	if spec.Fleet && spec.Version != "" {
		return cfg, errors.New("serve: fleet jobs run on worker processes, not a registry version; unset version")
	}
	if spec.FleetWorkers < 0 {
		return cfg, errors.New("serve: negative fleet_workers in job spec")
	}
	if spec.FleetWorkers > 0 && !spec.Fleet {
		return cfg, errors.New("serve: fleet_workers without fleet in job spec")
	}
	if spec.Deadline < 0 || spec.CheckpointEvery < 0 || spec.MaxRetries < 0 || spec.SDCCheckEvery < 0 {
		return cfg, errors.New("serve: negative policy field in job spec")
	}
	return cfg, nil
}

// FleetVersion is the pseudo-version fleet jobs are accounted and batched
// under. It is not a registry entry: dispatch recognises it and routes the
// batch to the fleet coordinator instead of building a port.
const FleetVersion = "fleet"

// fleetEnabled reports whether the server was configured with a fleet
// worker binary, the switch that admits JobSpec.Fleet jobs.
func (s *Server) fleetEnabled() bool { return len(s.opts.Fleet.WorkerCommand) > 0 }

// cacheable reports whether a spec's result may be served from or stored in
// the cache: fault-injected jobs are excluded (their outcome depends on the
// chaos schedule, not just the deck), and so are fleet jobs (their outcome
// carries migration/degradation history that is not a function of the deck).
func (s *Server) cacheable(spec JobSpec) bool {
	return s.cache != nil && spec.FaultSpec == "" && !spec.Fleet
}

// candidateVersions are the versions whose cached/in-flight results can
// satisfy a spec: the pinned version alone, or any pool member for an
// unpinned job (an unpinned request asked for "a" result, so a cached one
// from any pool member answers it).
func (s *Server) candidateVersions(spec JobSpec) []string {
	if spec.Version != "" {
		return []string{spec.Version}
	}
	return s.opts.Versions
}

// Submit validates the spec and admits the job, returning its status.
// Admission is a three-way fast path before any queue slot is consumed:
// a fresh cached result completes the job immediately (Cached), an
// identical in-flight solve adopts it as a follower (Coalesced on
// completion), and only a genuine miss occupies a queue slot and a worker.
// Rejections are typed: ErrQueueFull when the bounded queue is at capacity,
// ErrDraining after Drain began; anything else is a spec error. With a
// StateDir configured the returned acknowledgement is durable: the job's
// journal record is fsynced before Submit returns.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	cfg, err := resolveSpec(spec)
	if err != nil {
		return JobStatus{}, err
	}
	cfgHash := cfg.CanonicalHash()

	if spec.Fleet && !s.fleetEnabled() {
		return JobStatus{}, errors.New("serve: fleet jobs are not enabled on this server (no fleet worker binary configured)")
	}

	j, w, err := s.admit(spec, cfg, cfgHash)
	if err != nil {
		return JobStatus{}, err
	}
	// Journaled outside the server lock: an fsync must never serialize
	// admission. A worker can journal this job's start (or even finish)
	// first; replay merges a job's records regardless of order.
	st := j.snapshot()
	s.journal(w)
	return st, nil
}

// admit is Submit's locked body: the cache / singleflight / queue three-way
// admission. It returns the admitted job (possibly already finished, on a
// cache hit) and the journal records its admission owes.
func (s *Server) admit(spec JobSpec, cfg config.Config, cfgHash string) (*job, []jwrite, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.rejected.Inc()
		return nil, nil, ErrDraining
	}
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	j := &job{
		id:       id,
		seq:      s.seq,
		spec:     spec,
		cfg:      cfg,
		cfgHash:  cfgHash,
		progress: newProgress(),
		status:   JobStatus{ID: id, Submitted: time.Now()},
	}
	var w []jwrite

	if s.cacheable(spec) {
		// Cache lookup across every version that could answer this spec.
		for _, v := range s.candidateVersions(spec) {
			e, ok, expired := s.cache.get(cacheKey(cfgHash, v, spec))
			if expired {
				s.met.cacheEvTTL.Inc()
			}
			if ok {
				j.version = e.version
				r := e.result
				s.moveLocked(j, admitHit, &outcome{to: phDone, result: &r}, &w)
				return j, w, nil
			}
		}
		// Singleflight: collapse onto an identical in-flight solve.
		for _, v := range s.candidateVersions(spec) {
			k := cacheKey(cfgHash, v, spec)
			if f, ok := s.flights[k]; ok {
				j.version, j.key, j.flight = v, k, f
				f.followers = append(f.followers, j)
				s.moveLocked(j, admitFollow, nil, &w)
				return j, w, nil
			}
		}
	}

	// Genuine work: resolve the version now (so the cache key is concrete
	// and batching can group by version), then take a queue slot. Fleet
	// jobs are accounted under the fleet pseudo-version — they group only
	// with each other in micro-batches and dispatch to the coordinator.
	j.version = s.placeLocked(j)
	if s.cacheable(spec) {
		j.key = cacheKey(cfgHash, j.version, spec)
		j.flight = &flight{key: j.key}
	}
	if err := s.sched.push(j); err != nil {
		s.seq-- // the slot was never used
		s.met.rejected.Inc()
		return nil, nil, err
	}
	if j.flight != nil {
		s.flights[j.key] = j.flight
	}
	s.moveLocked(j, admitQueue, nil, &w)
	return j, w, nil
}

// Job returns a snapshot of one job by ID.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// jobByID returns the live job record (for the progress stream).
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns snapshots of every retained job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	s.evictLocked(time.Now()) // apply the age bound even between submissions
	js := s.storeLocked()
	s.mu.Unlock()
	out := make([]JobStatus, len(js))
	for i, j := range bySeq(js) {
		out[i] = j.snapshot()
	}
	return out
}

// storeLocked lists the job store. Caller holds s.mu.
func (s *Server) storeLocked() []*job {
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	return js
}

// bySeq sorts jobs into submission order.
func bySeq(js []*job) []*job {
	sort.Slice(js, func(a, b int) bool { return js[a].seq < js[b].seq })
	return js
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Ready reports whether the server should receive new traffic: it is false
// while draining and while the fleet is degraded (the last fleet job
// finished on a shrunken fleet, i.e. the service lost solve capacity it was
// configured for). A not-ready server is still live — /healthz keeps
// answering 200 so orchestrators don't kill a process that is merely
// drained or short on fleet capacity.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && !s.fleetDegraded
}

// Drain stops admission immediately (new submissions get ErrDraining),
// lets every queued and in-flight job run to completion, and returns when
// the worker pool is idle. The context bounds the graceful wait: on its
// expiry Drain interrupts the remaining jobs — they settle as
// StateInterrupted (journaled as resumable when a StateDir is configured,
// so the next server process picks them up), the workers are waited out,
// and Drain still returns a non-nil error naming the cut-off. A job's own
// deadline remains its only in-band time bound.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.sched.close()
	}
	s.mu.Unlock()
	// Pending resume timers either deliver now (and get ErrDraining from the
	// queue, settling interrupted) or are already gone.
	s.drainOnce.Do(func() { close(s.drainCh) })
	done := make(chan struct{})
	go func() {
		s.resumeWG.Wait()
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeJournal()
		return nil
	case <-ctx.Done():
	}
	// Budget exhausted: cancel the interrupt context so in-flight solves stop
	// at their next step boundary and settle as resumable interruptions, then
	// wait the workers out for real — returning with workers still mutating
	// the journal would race its close.
	s.intCancel(errInterrupted)
	<-done
	s.closeJournal()
	return fmt.Errorf("serve: drain interrupted with jobs still running: %w", context.Cause(ctx))
}

// Close is Drain with an unbounded wait.
func (s *Server) Close() { _ = s.Drain(context.Background()) }

// worker consumes fair-scheduled dispatches until the queue closes and
// drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		batch, ok := s.sched.popBatch(s.opts.BatchMaxJobs, s.batchMaxCells())
		if !ok {
			return
		}
		s.runBatch(batch)
	}
}

// batchMaxCells is the micro-batch admission cap for the next dispatch.
// The model may tighten the configured cap: a batch should stay within the
// dispatch-latency budget at the slowest pool member's current fitted rate.
// It never loosens the operator's cap.
func (s *Server) batchMaxCells() int {
	mc := s.opts.BatchMaxCells
	if mc <= 0 {
		return mc
	}
	for _, v := range s.opts.Versions {
		if h := s.pred.Hints(v); h.BatchMaxCells < mc {
			mc = h.BatchMaxCells
		}
	}
	return mc
}

// paramsFor is the port-build parameter set for one version, with the
// model's tuning hints applied. Explicit operator settings always win: hints
// only fill fields left at zero.
func (s *Server) paramsFor(version string) registry.Params {
	p := s.opts.Params
	if version == FleetVersion {
		return p
	}
	h := s.pred.Hints(version)
	if h.AutoTile && !p.TileAuto && p.TileX <= 0 && p.TileY <= 0 {
		p.TileAuto = true
	}
	if h.BlockX > 0 && p.Block.X <= 0 && p.Block.Y <= 0 {
		p.Block.X, p.Block.Y = h.BlockX, h.BlockY
	}
	return p
}

// workEstimate is the predictor's view of a job: cell count plus the
// modeled total iteration count of its deck.
func (j *job) workEstimate() (cells, iters int) {
	w := perfmodel.DeckWorkload(j.cfg.NX, j.cfg.NY, j.cfg.EndStep)
	return j.cells(), w.Steps * w.ItersPerStep
}

// runBatch executes one dispatch — a single job, or a micro-batch of small
// same-version decks — reusing one port (one team spin-up) across the
// batch. The port is rebuilt after any failed job: a failure may have left
// rank-state or device-state poisoned, and job isolation beats amortisation.
// Promoted singleflight followers run inline on this worker, also on a
// fresh port.
func (s *Server) runBatch(batch []*job) {
	if len(batch) > 1 {
		s.met.batches.Inc()
		s.met.batchJobs.Add(float64(len(batch)))
	}
	version := batch[0].version
	if version == FleetVersion {
		// Fleet jobs never share a port (each runs its own process fleet) and
		// never singleflight (uncacheable), so a fleet batch is just a loop.
		for _, j := range batch {
			s.runFleet(j)
		}
		return
	}
	v, verr := registry.Get(version)
	var port driver.Kernels
	defer func() {
		if port != nil {
			port.Close()
		}
	}()
	for _, j := range batch {
		for j != nil {
			if port == nil && verr == nil {
				port, verr = v.Make(s.paramsFor(version))
			}
			var next *job
			var healthy bool
			if verr != nil {
				// Port construction failed: fail the job (and let its
				// followers promote — they would hit the same wall, but
				// each records its own failure).
				next = s.move(j, settle, solved(&JobResult{}, 0, fmt.Errorf("serve: building %s port: %w", version, verr)))
				healthy = false
			} else {
				next, healthy = s.run(j, port)
			}
			if !healthy && port != nil {
				port.Close()
				port = nil
			}
			j = next
		}
	}
}

// runFleet executes one fleet job: hand the deck to the fleet coordinator,
// which spawns one worker OS process per rank, supervises their heartbeats
// and migrates from the last CRC-verified checkpoint on worker death. The
// outcome settles exactly like a port solve, plus the fleet health metrics
// and the readiness latch. Fleet jobs emit state and done progress events
// but no per-step events (steps happen in the worker processes).
func (s *Server) runFleet(j *job) {
	if s.interrupted() {
		s.move(j, settle, notStarted())
		return
	}
	began := time.Now()
	s.move(j, start, nil)
	attempt := j.attempt - 1 // this dispatch's number, taken by the start edge

	fo := s.opts.Fleet
	if j.spec.FleetWorkers > 0 {
		fo.Workers = j.spec.FleetWorkers
	}
	if fo.Workers <= 0 {
		fo.Workers = 3
	}
	// Per-job knobs override the server template; the fault schedule is
	// always per-job (a standing schedule would kill every fleet).
	fo.FaultSpec = j.spec.FaultSpec
	if j.spec.CheckpointEvery > 0 {
		fo.CheckpointEvery = j.spec.CheckpointEvery
	} else if fo.CheckpointEvery == 0 {
		fo.CheckpointEvery = s.opts.Recovery.CheckpointEvery
	}
	if fo.Dir != "" {
		// One subdirectory per job: concurrent fleet jobs must not share a
		// checkpoint file, and a drained job's directory names the job that
		// can resume it.
		fo.Dir = filepath.Join(fo.Dir, j.id)
	}
	fo.Log = s.opts.Log
	// Continue attempt numbering from prior dispatches of this job: a
	// nonzero base never re-arms the fault schedule (the drill's faults
	// already fired before the restart), and attempt directories stay
	// distinguishable across server generations.
	fo.AttemptBase = attempt
	if j.resumed && fo.Dir != "" {
		if step, ok := fleet.ProbeResume(fo.Dir); ok && s.opts.Log != nil {
			fmt.Fprintf(s.opts.Log, "serve: fleet job %s resumes from checkpoint step %d\n", j.id, step)
		}
	}

	// Derived from the interrupt context: Drain past its budget cancels the
	// fleet mid-attempt, which surfaces as fleet.ErrDrained wrapping
	// errInterrupted and settles the job as resumable.
	ctx := s.intCtx
	deadline := time.Duration(j.spec.Deadline)
	if deadline == 0 {
		deadline = s.opts.DefaultDeadline
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	res, err := fleet.RunJob(ctx, j.cfg, fo)
	wall := time.Since(began)
	s.tracer.Record(obs.Span{
		Name: j.id + " " + j.version, Cat: "job", TID: j.seq,
		Start: began, Dur: wall,
	})
	s.finishFleetJob(j, res, wall, err)
}

// finishFleetJob folds a fleet outcome into the job record, publishes the
// fleet health metrics and updates the readiness latch. res is nil when the
// job failed outright (migration budget exhausted, drained, spawn failure).
func (s *Server) finishFleetJob(j *job, res *fleet.Result, wall time.Duration, err error) {
	result := &JobResult{WallSeconds: wall.Seconds()}
	if res != nil {
		result.Steps = res.Steps
		result.TotalIterations = res.TotalIterations
		result.Converged = res.Converged
		result.Volume = res.Final.Volume
		result.Mass = res.Final.Mass
		result.InternalEnergy = res.Final.InternalEnergy
		result.Temperature = res.Final.Temperature
		result.Recoveries = res.Recoveries
		result.Migrations = res.Migrations
		result.FleetWorkers = res.Workers
		result.FleetDegraded = res.Degraded
		s.met.recoveries.Add(float64(res.Recoveries))
		s.met.fleetMigrations.Add(float64(res.Migrations))
		s.met.fleetWorkers.Set(float64(res.Workers))
		degraded := 0.0
		if res.Degraded {
			degraded = 1
		}
		s.met.fleetDegraded.Set(degraded)
		s.mu.Lock()
		s.fleetDegraded = res.Degraded
		s.mu.Unlock()
	}
	// Fleet jobs never lead a flight (uncacheable), so no follower returns.
	s.move(j, settle, solved(result, wall, err))
}

// run executes one job on a prebuilt port, returning a promoted follower to
// run next (nil if none) and whether the port is still safe to reuse.
func (s *Server) run(j *job, port driver.Kernels) (next *job, healthy bool) {
	if s.interrupted() {
		// Popped after shutdown began: settle as interrupted without a start
		// record, so the replayed job resumes immediately and the aborted
		// dispatch never burns resume budget.
		return s.move(j, settle, notStarted()), true
	}
	s.move(j, start, nil)
	res, wall, err := s.solve(j, port)
	return s.finishJob(j, res, wall, err), err == nil
}

// finishJob records a solve's outcome and settles the job, returning the
// follower its flight promoted (nil if none).
func (s *Server) finishJob(j *job, res driver.Result, wall time.Duration, err error) *job {
	result := &JobResult{
		Steps:           len(res.Steps),
		TotalIterations: res.TotalIterations,
		Volume:          res.Final.Volume,
		Mass:            res.Final.Mass,
		InternalEnergy:  res.Final.InternalEnergy,
		Temperature:     res.Final.Temperature,
		Recoveries:      res.Recoveries,
		SDCDetected:     res.SDCDetected,
		SDCRecovered:    res.SDCRecovered,
		WallSeconds:     wall.Seconds(),
	}
	if n := len(res.Steps); n > 0 {
		result.Converged = res.Steps[n-1].Stats.Converged
	}
	s.met.recoveries.Add(float64(res.Recoveries))
	s.met.sdcFound.Add(float64(res.SDCDetected))
	s.met.sdcFixed.Add(float64(res.SDCRecovered))
	if err == nil && wall > 0 && res.TotalIterations > 0 {
		// Online recalibration: every successful solve refines the cost
		// model the scheduler and the portability dashboard read.
		s.pred.Observe(j.version, j.cells(), res.TotalIterations, wall.Seconds())
	}
	return s.move(j, settle, solved(result, wall, err))
}

// solve wires instrumentation onto a prebuilt port and runs the resilient
// driver under the job's deadline and policy. The named error return feeds
// the deferred recover: a panic escaping the driver (possible on the plain
// RunCtx path, which has no containment of its own) fails the job, never
// the worker.
func (s *Server) solve(j *job, port driver.Kernels) (res driver.Result, wall time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: job panicked: %v", p)
		}
	}()

	prof := profiler.New()
	prof.SetSpanObserver(s.tracer.Observer("kernel", j.seq))
	var kernels driver.Kernels = driver.Instrument(port, prof)
	if j.spec.FaultSpec != "" {
		faults, err := chaos.ParseSpec(j.spec.FaultSpec) // validated at Submit
		if err != nil {
			return driver.Result{}, 0, err
		}
		kernels = chaos.Wrap(kernels, faults)
	}

	opt := solver.FromConfig(&j.cfg)
	opt.SDCCheckEvery = j.spec.SDCCheckEvery
	for _, f := range j.spec.Fallback {
		kind, err := solverKindNamed(f)
		if err != nil {
			return driver.Result{}, 0, err
		}
		opt.Fallback = append(opt.Fallback, kind)
	}
	if len(opt.Fallback) > 0 && opt.MaxRestarts == 0 {
		// A degradation chain implies restart-from-iterate is wanted too
		// (same convention as cmd/tealeaf -fallback).
		opt.MaxRestarts = 1
	}

	pol := s.opts.Recovery
	if j.spec.CheckpointEvery > 0 {
		pol.CheckpointEvery = j.spec.CheckpointEvery
	}
	if j.spec.MaxRetries > 0 {
		pol.MaxRetries = j.spec.MaxRetries
	}
	if s.jnl != nil && pol.CheckpointEvery > 0 {
		// Durable mode mirrors this job's recovery points to its own file, so
		// a crashed server resumes the solve instead of redoing it. Resume
		// only on replayed jobs: a fresh job must never adopt a leftover
		// checkpoint from a prior identically-named job (IDs restart only
		// when the journal was removed).
		pol.CheckpointPath = s.jobCkptPath(j.id)
		pol.Resume = j.resumed
	}

	// Derived from the interrupt context: Drain past its budget cancels the
	// solve at the next step boundary, which surfaces as errInterrupted (the
	// cancellation cause) and settles the job as resumable.
	ctx := s.intCtx
	deadline := time.Duration(j.spec.Deadline)
	if deadline == 0 {
		deadline = s.opts.DefaultDeadline
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	totalIters := 0
	ctx = driver.WithStepObserver(ctx, func(sr driver.StepResult) {
		s.met.steps.Inc()
		s.met.iterations.Add(float64(sr.Stats.Iterations))
		totalIters += sr.Stats.Iterations
		ev := Event{
			Type:       "step",
			Step:       sr.Step,
			SimTime:    sr.Time,
			Iterations: totalIters,
			Residual:   sr.Stats.Error,
			Converged:  sr.Stats.Converged,
		}
		if sr.Totals != nil {
			ev.Temperature = sr.Totals.Temperature
		}
		j.progress.emit(ev)
		s.journalProgress(j, sr.Step)
		// Followers of this flight see the leader's live progress too.
		if f := j.flight; f != nil {
			s.mu.Lock()
			watchers := append([]*job(nil), f.followers...)
			s.mu.Unlock()
			for _, fj := range watchers {
				fj.progress.emit(ev)
			}
		}
	})

	var tilePrev driver.TilingSnapshot
	tiler := driver.AsTilingReporter(port)
	if tiler != nil {
		// Ports can outlive a job (prebuilt per submission but counters are
		// cumulative), so attribute only this run's delta to the metrics.
		tilePrev = tiler.TilingSnapshot()
	}
	began := time.Now()
	res, err = driver.RunResilientCtx(ctx, j.cfg, kernels, solver.New(opt), s.opts.Log, pol)
	wall = time.Since(began)
	if tiler != nil {
		s.publishTiling(tiler.TilingSnapshot().Sub(tilePrev), totalIters)
	}
	s.tracer.Record(obs.Span{
		Name: j.id + " " + j.version, Cat: "job", TID: j.seq,
		Start: began, Dur: wall,
	})
	s.publishProfile(prof)
	return res, wall, err
}

// publishTiling folds one job's ops loop-chain counters into /metrics so
// tiling effectiveness is visible live: the counters accumulate across
// jobs, while the per-iteration sweep gauges reflect the most recent tiled
// job (Flushes/iter is what a tiled chain actually swept, LoopsExecuted/
// iter what an untiled run would have).
func (s *Server) publishTiling(d driver.TilingSnapshot, iters int) {
	s.reg.Counter("tealeaf_ops_flushes_total", "ops chain executions (tiled sweeps) across all jobs").Add(float64(d.Flushes))
	s.reg.Counter("tealeaf_ops_tiles_total", "tile visits across all flushed ops chains").Add(float64(d.Tiles))
	s.reg.Counter("tealeaf_ops_chains_total", "multi-loop ops chains flushed across all jobs").Add(float64(d.Chains))
	s.reg.Counter("tealeaf_ops_chained_loops_total", "loops executed as part of multi-loop ops chains").Add(float64(d.ChainedLoops))
	s.reg.Counter("tealeaf_ops_loops_total", "ops loops executed across all jobs").Add(float64(d.LoopsExecuted))
	s.reg.Counter("tealeaf_ops_discards_total", "queued ops chains dropped by rollback").Add(float64(d.Discards))
	if !d.Tiling {
		return
	}
	s.reg.Gauge("tealeaf_ops_tile_x", "resolved tile width in cells (last tiled job)").Set(float64(d.TileX))
	s.reg.Gauge("tealeaf_ops_tile_y", "resolved tile height in cells (last tiled job)").Set(float64(d.TileY))
	s.reg.Gauge("tealeaf_ops_max_chain_len", "longest ops loop chain flushed (last tiled job)").Set(float64(d.MaxChainLen))
	if iters > 0 {
		s.reg.Gauge("tealeaf_ops_sweeps_per_iter_tiled", "achieved full-field sweeps per solver iteration with chain tiling (last tiled job)").
			Set(float64(d.Flushes) / float64(iters))
		s.reg.Gauge("tealeaf_ops_sweeps_per_iter_untiled", "full-field sweeps per solver iteration the same loops would cost untiled (last tiled job)").
			Set(float64(d.LoopsExecuted) / float64(iters))
	}
}

// publishProfile folds a job's per-kernel profile into the labeled kernel
// counter families — the live view of what used to be the -profile table.
func (s *Server) publishProfile(p *profiler.Profile) {
	for _, e := range p.Entries() {
		s.reg.Counter(obs.SeriesName("tealeaf_kernel_calls_total", "kernel", e.Name),
			"kernel invocations across all jobs").Add(float64(e.Calls))
		s.reg.Counter(obs.SeriesName("tealeaf_kernel_seconds_total", "kernel", e.Name),
			"wall-clock seconds spent in each kernel across all jobs").Add(e.Time.Seconds())
		s.reg.Counter(obs.SeriesName("tealeaf_kernel_sweeps_total", "kernel", e.Name),
			"full-field memory sweeps attributed to each kernel across all jobs").Add(float64(e.Sweeps))
	}
}
