# TeaLeaf-Go build/test/bench entry points. Everything is plain `go` tool
# invocations; the targets just pin the flag sets CI and CHANGES.md refer to.

GO ?= go

.PHONY: build test cross bench-check race soak chaos fleet-chaos serve-crash fuzz bench-kern bench-par bench-cg bench-sdc bench-serve bench-tiling bench-portability docs-lint bench

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# cross builds and vets everything for arm64, where internal/kern has no
# assembly and every row body is its Go reference, so that path keeps
# compiling and vetting; on amd64 `go vet ./...` checks kern_amd64.s against
# its Go declarations (asmdecl).
cross:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...

# bench-check vets and tests bench/, the module bench/run.sh builds the
# benchmark from. It is its own module, so `go build ./...` and `go test ./...`
# at the root never compile it, and a change to an API it calls would
# otherwise first fail in a benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# race runs the parallel-runtime, message-passing-runtime, row-kernel,
# framework-layer and port suites under the race detector — the shared-memory
# barrier in internal/par, the pooled payload buffers in internal/comm, the
# kern row bodies, the layers that hand rows out (simgpu blocks, Kokkos team
# and RAJA row policies, the OPS loop engine: their segment-vs-point
# equivalence tests run on a multi-thread team and a multi-worker device),
# and every consumer of them (race builds leave out kern's SSE2 bodies, whose
# loads and stores the detector cannot see, so every row access goes through
# the Go references; internal/backends/chunk runs every body on
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
# containment, Reset and Close-after-burst, comm's abort wake-ups, collective
# deadlines and socket-world Close right after start (where a lost wake-up
# hung about one close in 50,000), and the simulated GPU on its team (use
# after Close, Close after launch bursts, concurrent launchers taking turns
# on the stream lock, a panicking kernel reaching the caller from a team worker),
# and the OPS context's recycled launch state — the accessor sets and partial
# buffers its team shares and device blocks share with the leader, and the
# handles that outlive the loops after them (the reduction chains' and row
# kernels' property tests, on a three-thread team and a two-thread device).
# Then the serving plane's job
# lifecycle under the race detector: the seeded model test (random traffic,
# drain, restart), the
# version-ledger drills, leader-expiry promotion, retention and the
# drain-interrupt-resume path — one pass, since one pass of the serve tests
# takes as long as forty of the handshakes. About three minutes on two cores;
# any failure is a bug.
soak:
	$(GO) test -race -count=40 -timeout 5m \
		-run 'TestCloseAfterBurstDoesNotHang|TestCloseIdempotent|TestUseAfterClosePanics|TestPanicSurfacesAsRankError|TestAbortWakesSpinningWaiters|TestWatchdog|TestWorldResetAfterFailure|TestSocketCloseDoesNotHang|TestConcurrentLaunchesSerialise|TestKernelPanicReachesCaller|TestTilingPropertyRandomChainsWithReductions|TestTilingPropertyRowKernels' \
		./internal/par/ ./internal/backends/spmd/ ./internal/comm/ ./internal/simgpu/ ./internal/ops/
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
# socket-transport bitwise-equivalence batteries of the manual-mpi and
# ops-mpi rank sets, the checkpoint lock stress test, and the serve-layer
# fleet jobs (submission, migration, readiness latch). The spawned worker
# processes are this same race-instrumented test binary re-exec'd, so data
# races inside workers are caught too. -timeout
# bounds the wall clock: every test has its own liveness monitor, so a hang
# is a bug, not a slow machine.
fleet-chaos:
	$(GO) test -race -timeout 10m ./internal/fleet/
	$(GO) test -race -timeout 10m -run 'TestSocketTransportBitwiseEquivalence|TestConformanceSocket|TestSocketRanksMatchInProcess' ./internal/backends/mpi/ ./internal/backends/opsport/
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

# fuzz exercises the deck parser, the comm fault-spec parser, the chaos
# schedule parser, the journal frame decoder, the checkpoint decoder and the
# kern row bodies' SSE2 paths against their Go references, on their
# checked-in corpora plus 30s each of new coverage-guided inputs.
fuzz:
	$(GO) test -fuzz FuzzParseReader -fuzztime 30s ./internal/config/
	$(GO) test -fuzz FuzzParseSpec -fuzztime 30s ./internal/comm/
	$(GO) test -fuzz FuzzParseSpec -fuzztime 30s ./internal/chaos/
	$(GO) test -fuzz FuzzReplay -fuzztime 30s ./internal/serve/journal/
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/checkpoint/
	$(GO) test -fuzz FuzzRowBodies -fuzztime 30s ./internal/kern/

# bench-kern times each kern row body that has an SSE2 path against its Go
# reference in the same run, at 130- and 1028-wide padded rows, in the
# kernel table's bytes per sweep; see EXPERIMENTS.md for a captured table.
bench-kern:
	$(GO) test -run '^$$' -bench BenchmarkRowBodies ./internal/kern/

# bench-par measures the fork-join runtime itself: dispatch latency (epoch
# barrier vs the legacy channel-per-worker path), the 256² cg_calc_w-shaped
# reduction, and allocation counts for ReduceSum (expected: 0 allocs/op).
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

# docs-lint cross-checks the operator docs against the code (every metric
# a doc names must be registered, every registered metric documented, and
# every teaserve flag covered by docs/OPERATIONS.md) and runs the two static
# gates: TestNoDeadAPI (every identifier under internal/ has a non-test user
# or a line in deadapi_allowlist.txt) and TestStdAPIFloor (no standard
# library API newer than go.mod's go 1.22). TestStdAPIFloor skips on a Go
# 1.22 toolchain, as CI installs from go.mod: there the compiler itself is
# the gate, so that skip is not a failure.
docs-lint:
	$(GO) test -count=1 -run 'TestDocsLint|TestStdAPIFloor|TestNoDeadAPI' .

# bench runs the full repo benchmark set.
bench:
	$(GO) test -bench=. -benchmem ./...
