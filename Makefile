# TeaLeaf-Go build/test/bench entry points. Everything is plain `go` tool
# invocations; the targets just pin the flag sets CI and CHANGES.md refer to.

GO ?= go

.PHONY: build test race soak chaos fleet-chaos serve-crash fuzz bench-par bench-cg bench-sdc bench-serve bench-tiling bench-portability docs-lint bench

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# race runs the parallel-runtime, message-passing-runtime, row-kernel,
# framework-layer and port suites under the race detector — the shared-memory
# barrier in internal/par, the pooled payload buffers in internal/comm, the
# kern row bodies, the layers that hand rows out (simgpu blocks, Kokkos team
# and RAJA row policies, the OPS loop engine: their segment-vs-point
# equivalence tests run on a multi-thread team and a multi-worker device),
# and every consumer of them (internal/backends/hostchunk runs every body on
# a multi-thread team; internal/backends/spmd, the in-process SPMD runner,
# hands each call from the caller's goroutine to the other ranks'), plus the
# solver and driver that dispatch into the ports.
race:
	$(GO) test -race ./internal/par/... ./internal/comm/... ./internal/kern/... \
		./internal/simgpu/... ./internal/kokkos/... ./internal/raja/... ./internal/ops/... \
		./internal/backends/... ./internal/driver/... ./internal/solver/...

# soak repeats the spin-then-park handshakes under the race detector: par's
# Team.Close after short bursts (where a one-in-40,000 hang once lived; each
# repetition closes tens of thousands of teams), the SPMD runner's panic
# containment, Reset and Close-after-burst, comm's abort wake-ups and
# collective deadlines, and the simulated GPU on its team (use after Close,
# Close after launch bursts, concurrent launchers taking turns on the stream
# lock, a panicking kernel reaching the caller). Then the serving plane's job
# lifecycle under the race detector: the seeded model test (random traffic,
# drain, restart), the
# version-ledger drills, leader-expiry promotion, retention and the
# drain-interrupt-resume path — one pass, since one pass of the serve tests
# takes as long as forty of the handshakes. About two minutes on two cores;
# any failure is a bug.
soak:
	$(GO) test -race -count=40 -timeout 5m \
		-run 'TestCloseAfterBurstDoesNotHang|TestCloseIdempotent|TestUseAfterClosePanics|TestPanicSurfacesAsRankError|TestAbortWakesSpinningWaiters|TestWatchdog|TestWorldResetAfterFailure|TestConcurrentLaunchesSerialise|TestKernelPanicReachesCaller' \
		./internal/par/ ./internal/backends/spmd/ ./internal/comm/ ./internal/simgpu/
	$(GO) test -race -count=1 -timeout 5m \
		-run 'TestLifecycleModel|TestVersionLedgerZeroWhenIdle|TestLeaderExpiryPromotesFollower|TestRetention|TestDrainInterruptsAndRestartResumes' \
		./internal/serve/

# chaos runs the resilience suite under the race detector: the comm fault
# injector and recovery latch, the chaos kernel wrapper, checkpoint/restore,
# the solver breakdown/fallback paths, the resilient run loop, and the
# per-port ChaosConformance + SDCConformance drills (fault schedule +
# rollback must match a fault-free run to 1e-12; injected bit-flips must be
# detected by the ABFT monitor / comm checksums and recovered). The serving
# layer (job queue, worker pool, metrics registry, span tracer) runs its
# whole suite under race here too — it is the most goroutine-dense code in
# the repo.
chaos: fleet-chaos
	$(GO) test -race ./internal/chaos/... ./internal/checkpoint/...
	$(GO) test -race -run 'Chaos|Fault|Resilien|Breakdown|Fallback|Restart|Recover|Watchdog|Kill|NaN|Divergence|SDC|Cancel|Deadline|Checksum|Corrupt' \
		./internal/comm/... ./internal/solver/... ./internal/driver/... \
		./internal/backends/... ./internal/registry/...
	$(GO) test -race ./internal/serve/... ./internal/obs/...

# fleet-chaos runs the multi-process suite under the race detector: the
# supervised worker fleet (clean run, kill-9 migration drill, degraded
# finish, drain-vs-migration race, silent-worker heartbeat catch), the
# socket-transport bitwise-equivalence battery, the checkpoint lock stress
# test, and the serve-layer fleet jobs (submission, migration, readiness
# latch). The spawned worker processes are this same race-instrumented test
# binary re-exec'd, so data races inside workers are caught too. -timeout
# bounds the wall clock: every test has its own liveness monitor, so a hang
# is a bug, not a slow machine.
fleet-chaos:
	$(GO) test -race -timeout 10m ./internal/fleet/
	$(GO) test -race -timeout 10m -run 'TestSocketTransportBitwiseEquivalence|TestConformanceSocket' ./internal/backends/mpi/
	$(GO) test -race -timeout 10m -run 'TestConcurrentSaveLoadNeverTorn' ./internal/checkpoint/
	$(GO) test -race -timeout 10m -run 'TestServeFleet|TestSubmitFleetValidation|TestHTTPDrainLivenessVsReadiness|TestHTTPReadyzFleetDegraded' ./internal/serve/

# serve-crash is the durable-job-plane acceptance drill under the race
# detector: a real server process (the test binary re-exec'd) accepts 20
# mixed checkpointed single + fleet jobs, is SIGKILLed mid-flight, restarts
# against the same state and fleet directories, and every accepted job must
# settle bitwise-identical (1e-12) to a fault-free reference with the
# submitted == completed + expired + failed accounting identity exact on the
# scraped /metrics. The durable drain/resume/replay suite rides along.
serve-crash:
	$(GO) test -race -timeout 10m -count=1 -v \
		-run 'TestServeCrashDrill|TestDurableRestartRestoresStoreAndCache|TestReplayResumesNeverStartedJob|TestReplayBudgetExhaustedFailsTyped|TestDrainInterruptsAndRestartResumes|TestServeDrainResumesFleetJob|TestJournalCompactionKeepsStore' \
		./internal/serve/
	$(GO) test -race -count=1 ./internal/serve/journal/

# fuzz exercises the deck parser, the comm fault-spec parser and the journal
# frame decoder against their checked-in corpora plus 30s each of new
# coverage-guided inputs.
fuzz:
	$(GO) test -fuzz FuzzParseReader -fuzztime 30s ./internal/config/
	$(GO) test -fuzz FuzzParseSpec -fuzztime 30s ./internal/comm/
	$(GO) test -fuzz FuzzReplay -fuzztime 30s ./internal/serve/journal/

# bench-par measures the fork-join runtime itself: dispatch latency (epoch
# barrier vs the legacy channel-per-worker path), the 256² cg_calc_w-shaped
# reduction, and allocation counts for ReduceSum/ReduceSum2/ReduceMax
# (expected: 0 allocs/op).
bench-par:
	$(GO) test -bench=. -benchmem ./internal/par/

# bench-cg measures the CG hot path per port (ns/cg-iter metric); see
# EXPERIMENTS.md for a captured table.
bench-cg:
	$(GO) test -bench=BenchmarkCGIteration -benchmem -run '^$$' .

# bench-sdc measures the ABFT invariant monitor's cost at the default check
# cadence against the monitor-off baseline on the same pinned 50-iteration
# solve (acceptance budget <5%); see EXPERIMENTS.md for a captured table.
bench-sdc:
	$(GO) test -bench=BenchmarkSDCOverhead -benchtime 30x -count 3 -run '^$$' .

# bench-serve drives the job service with a mixed hot/unique deck stream and
# writes BENCH_serve.json (throughput, cache-hit ratio, latency quantiles —
# all read back from /metrics); see docs/OPERATIONS.md for the schema.
bench-serve:
	$(GO) run ./cmd/teabench -experiment serve -json

# bench-tiling measures cross-iteration loop-chain tiling on the OPS port
# (tiled vs untiled ns/cg-iter, sweeps/iter, tile geometry) and writes
# BENCH_tiling.json — the committed baseline TestTilingSweepsGate enforces;
# see docs/OPERATIONS.md for the schema and EXPERIMENTS.md for a captured
# table.
bench-tiling:
	$(GO) run ./cmd/teabench -experiment tiling -n 256 -json

# bench-portability runs every registered version at a reduced mesh and
# writes BENCH_portability.json: measured host wall times and application
# efficiencies, per-family harmonic-mean scores, and the deterministic
# modeled Pennycook report — the committed baseline TestPortabilityGate
# enforces and the artefact `teaserve -bench-dir` seeds its predictor
# from; see docs/PORTABILITY.md for the schema.
bench-portability:
	$(GO) run ./cmd/teabench -experiment portability -n 128 -steps 2 -json

# docs-lint cross-checks the operator docs against the code: every metric
# a doc names must be registered, every registered metric documented, and
# every teaserve flag covered by docs/OPERATIONS.md.
docs-lint:
	$(GO) test -count=1 -run 'TestDocsLint' .

# bench runs the full repo benchmark set.
bench:
	$(GO) test -bench=. -benchmem ./...
