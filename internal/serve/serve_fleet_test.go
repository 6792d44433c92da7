package serve

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/mpi"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/fleet"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// TestMain doubles this test binary as the fleet worker executable, exactly
// like the fleet package's own suite: a server configured with
// WorkerCommand = os.Args[0] re-execs this binary, and the TEALEAF_FLEET_*
// environment routes the child into the worker path instead of the tests.
func TestMain(m *testing.M) {
	// The fleet-worker check must come first: workers spawned by a crash-drill
	// child inherit its TEASERVE_CRASH_CHILD environment, and routing them
	// into the server branch would fork servers recursively.
	if fleet.InWorkerEnv() {
		if err := fleet.RunWorkerFromEnv(context.Background(), os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv("TEASERVE_CRASH_CHILD") != "" {
		crashChildMain()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fleetServerOptions configures a server whose fleet jobs spawn this test
// binary as their workers.
func fleetServerOptions() Options {
	return Options{
		QueueSize: 4, Workers: 1,
		Fleet: fleet.Options{
			Workers:       3,
			WorkerCommand: []string{os.Args[0]},
			// The drills here kill processes outright, and exits are seen
			// via waitpid — heartbeats are only a backstop. Keep the
			// timeouts generous so a loaded CI machine starving a worker
			// for a couple of seconds doesn't read as a death.
			HeartbeatInterval: 20 * time.Millisecond,
			HeartbeatTimeout:  2 * time.Second,
			DialTimeout:       15 * time.Second,
			BeatEvery:         20 * time.Millisecond,
			BeatTimeout:       10 * time.Second,
			StartupGrace:      20 * time.Second,
		},
	}
}

// fleetReference is the fault-free in-process run a fleet job must match:
// same kernels, same decomposition, same reduction order — only the process
// boundaries and the socket transport differ.
func fleetReference(t *testing.T, cfg config.Config, ranks int) driver.Result {
	t.Helper()
	k := mpi.New(ranks, 1)
	defer k.Close()
	res, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
	if err != nil {
		t.Fatalf("in-process reference: %v", err)
	}
	return res
}

// TestServeFleetJobEndToEnd submits a fleet job through the ordinary Submit
// path and checks it solves across worker processes, reproducing the
// in-process run to 1e-12, with the fleet metrics published.
func TestServeFleetJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet jobs spawn worker processes; skipped in -short")
	}
	s, err := New(fleetServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(JobSpec{Deck: deck(16, 2), Fleet: true})
	if err != nil {
		t.Fatal(err)
	}
	st = waitJob(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("fleet job ended %s: %s", st.State, st.Error)
	}
	if st.Version != FleetVersion {
		t.Errorf("fleet job resolved version %q, want %q", st.Version, FleetVersion)
	}
	r := st.Result
	if r == nil || r.Migrations != 0 || r.FleetWorkers != 3 || r.FleetDegraded {
		t.Fatalf("clean fleet job outcome: %+v", r)
	}
	ref := fleetReference(t, mustParse(t, deck(16, 2)), 3)
	d, err := driver.CompareTotalsChecked(ref.Final, driver.Totals{
		Volume: r.Volume, Mass: r.Mass, InternalEnergy: r.InternalEnergy, Temperature: r.Temperature,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Errorf("fleet job diverges from in-process run by %g", d)
	}
	if !s.Ready() {
		t.Error("server not ready after a clean full-size fleet job")
	}
	scrape := metricsText(t, s)
	for _, m := range []string{"teaserve_fleet_jobs_total 1", "teaserve_fleet_workers 3", "teaserve_fleet_degraded 0"} {
		if !strings.Contains(scrape, m) {
			t.Errorf("metrics missing %q", m)
		}
	}
}

// TestServeFleetJobMigratesOnKill is the service-level migration drill: the
// job's fault spec kills rank 1's process mid-solve, the coordinator must
// migrate from the checkpoint, and the job still finishes with the
// fault-free answer and Migrations recorded on its result.
func TestServeFleetJobMigratesOnKill(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet jobs spawn worker processes; skipped in -short")
	}
	s, err := New(fleetServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(JobSpec{Deck: deck(16, 3), Fleet: true, FaultSpec: "killproc:rank=1,op=60"})
	if err != nil {
		t.Fatal(err)
	}
	st = waitJob(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("fleet job ended %s: %s", st.State, st.Error)
	}
	r := st.Result
	if r == nil || r.Migrations < 1 || r.FleetWorkers != 3 || r.FleetDegraded {
		t.Fatalf("killed fleet job should migrate and finish full-size: %+v", r)
	}
	ref := fleetReference(t, mustParse(t, deck(16, 3)), 3)
	d, err := driver.CompareTotalsChecked(ref.Final, driver.Totals{
		Volume: r.Volume, Mass: r.Mass, InternalEnergy: r.InternalEnergy, Temperature: r.Temperature,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Errorf("migrated fleet job diverges from fault-free run by %g", d)
	}
	scrape := metricsText(t, s)
	if !strings.Contains(scrape, "teaserve_fleet_migrations_total 1") {
		t.Errorf("migration not counted:\n%s", grepLines(scrape, "teaserve_fleet"))
	}
}

// TestServeFleetDegradedFailsReadiness: a Degrade-mode fleet job that loses
// a worker finishes smaller, which must latch the server not-ready while
// liveness is unaffected — the probe split /readyz exists for.
func TestServeFleetDegradedFailsReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet jobs spawn worker processes; skipped in -short")
	}
	opts := fleetServerOptions()
	opts.Fleet.Degrade = true
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(JobSpec{Deck: deck(16, 3), Fleet: true, FaultSpec: "killproc:rank=1,op=60"})
	if err != nil {
		t.Fatal(err)
	}
	st = waitJob(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("degraded fleet job ended %s: %s", st.State, st.Error)
	}
	if r := st.Result; r == nil || !r.FleetDegraded || r.FleetWorkers != 2 {
		t.Fatalf("expected a degraded 2-worker finish: %+v", st.Result)
	}
	if s.Ready() {
		t.Error("server still ready after a degraded fleet finish")
	}
	if s.Draining() {
		t.Error("degradation must not mark the server draining")
	}
}

// TestSubmitFleetValidation pins the fleet-specific admission rules.
func TestSubmitFleetValidation(t *testing.T) {
	// Fleet disabled: fleet jobs rejected, everything else unaffected.
	plain, err := New(Options{QueueSize: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Submit(JobSpec{Deck: deck(16, 1), Fleet: true}); err == nil ||
		!strings.Contains(err.Error(), "not enabled") {
		t.Errorf("fleet job on a fleetless server: %v", err)
	}

	s, err := New(fleetServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"fleet with pinned version", JobSpec{Deck: deck(16, 1), Fleet: true, Version: "manual-serial"}},
		{"fleet with chaos-grammar fault", JobSpec{Deck: deck(16, 1), Fleet: true, FaultSpec: "nan@2.3"}},
		{"transport fault without fleet", JobSpec{Deck: deck(16, 1), FaultSpec: "killproc:rank=1,op=60"}},
		{"negative fleet workers", JobSpec{Deck: deck(16, 1), Fleet: true, FleetWorkers: -1}},
		{"fleet workers without fleet", JobSpec{Deck: deck(16, 1), FleetWorkers: 2}},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Transport grammar is valid for fleet jobs (accepted, then cancelled by
	// Close before it needs to finish).
	if _, err := s.Submit(JobSpec{Deck: deck(16, 1), Fleet: true, FaultSpec: "slowlink:prob=0.01,delay=1ms"}); err != nil {
		t.Errorf("valid transport fault rejected: %v", err)
	}
}

func mustParse(t *testing.T, text string) config.Config {
	t.Helper()
	cfg, err := config.ParseReader(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// metricsText scrapes the server's registry as Prometheus text.
func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	var sb strings.Builder
	s.reg.WriteText(&sb)
	return sb.String()
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
