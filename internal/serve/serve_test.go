package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
)

// deck renders a small benchmark-shaped tea.in deck (n^2 cells, the
// standard two-material layout) with the given step count.
func deck(n, steps int) string {
	cfg := config.BenchmarkN(n)
	cfg.EndStep = steps
	return cfg.Summary()
}

// waitJob polls until the job leaves the queued/running states, failing the
// test rather than hanging if it never settles.
func waitJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle in time", id)
	return JobStatus{}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Options{QueueSize: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"empty", JobSpec{}},
		{"both deck and benchmark", JobSpec{Deck: deck(16, 1), Benchmark: "bm_250"}},
		{"bad deck", JobSpec{Deck: "*tea\nx_cells=-3\n*endtea\n"}},
		{"bad benchmark", JobSpec{Benchmark: "bm_nope"}},
		{"bad version", JobSpec{Deck: deck(16, 1), Version: "manual-vaporware"}},
		{"bad fallback", JobSpec{Deck: deck(16, 1), Fallback: []string{"gmres"}}},
		{"negative deadline", JobSpec{Deck: deck(16, 1), Deadline: -1}},
		{"bad fault spec", JobSpec{Deck: deck(16, 1), FaultSpec: "meteor@1.1"}},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.spec); err == nil {
			t.Errorf("%s: submission accepted, want error", tc.name)
		}
	}
	if got := s.met.submitted.Value(); got != 0 {
		t.Errorf("invalid specs counted as submitted: %v", got)
	}
}

// TestAdmissionControlQueueFull fills a 1-deep queue behind a single busy
// worker and checks overflow submissions get the typed rejection and are
// counted, while every accepted job still completes.
func TestAdmissionControlQueueFull(t *testing.T) {
	s, err := New(Options{QueueSize: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	slow := JobSpec{Deck: deck(96, 100)} // keeps the worker busy for a while
	fast := JobSpec{Deck: deck(16, 1)}
	var accepted []string
	first, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	accepted = append(accepted, first.ID)

	gotFull := false
	for i := 0; i < 50 && !gotFull; i++ {
		st, err := s.Submit(fast)
		switch {
		case err == nil:
			accepted = append(accepted, st.ID)
		case errors.Is(err, ErrQueueFull):
			gotFull = true
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if !gotFull {
		t.Fatal("queue never reported ErrQueueFull (1 worker, queue depth 1, 50 attempts)")
	}
	if got := s.met.rejected.Value(); got < 1 {
		t.Errorf("rejected counter = %v, want >= 1", got)
	}
	for _, id := range accepted {
		if st := waitJob(t, s, id); st.State != StateDone {
			t.Errorf("accepted job %s ended %s (%s), want done", id, st.State, st.Error)
		}
	}
}

// TestDeadlineExpiryReturnsPartialStats submits a job that cannot finish
// inside its deadline and checks it settles promptly in StateExpired with
// the partial stats — not a hang, not a failure.
func TestDeadlineExpiryReturnsPartialStats(t *testing.T) {
	s, err := New(Options{QueueSize: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(JobSpec{Deck: deck(128, 100000), Deadline: Duration(300 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	final := waitJob(t, s, st.ID)
	if settled := time.Since(start); settled > 30*time.Second {
		t.Errorf("expiry took %v to surface", settled)
	}
	if final.State != StateExpired {
		t.Fatalf("state = %s (%s), want expired", final.State, final.Error)
	}
	if final.Result == nil || !final.Result.Partial {
		t.Fatalf("expired job carries no partial result: %+v", final.Result)
	}
	if final.Result.TotalIterations == 0 {
		t.Error("partial result shows no iterations — the solve never ran")
	}
	if s.met.expired.Value() != 1 {
		t.Errorf("expired counter = %v, want 1", s.met.expired.Value())
	}
	if s.met.failed.Value() != 0 {
		t.Errorf("deadline expiry was misclassified as failure (failed = %v)", s.met.failed.Value())
	}
}

// TestGracefulDrainFinishesInFlight drains a loaded server and checks every
// accepted job — running and still queued — completes, while new
// submissions are turned away with the typed ErrDraining.
func TestGracefulDrainFinishesInFlight(t *testing.T) {
	s, err := New(Options{QueueSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := s.Submit(JobSpec{Deck: deck(64, 20)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Submit(JobSpec{Deck: deck(16, 1)}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit error = %v, want ErrDraining", err)
	}
	for _, id := range ids {
		st, _ := s.Job(id)
		if st.State != StateDone {
			t.Errorf("job %s ended %s (%s), want done after drain", id, st.State, st.Error)
		}
	}
	if got := s.met.completed.Value(); got != 4 {
		t.Errorf("completed counter = %v, want 4", got)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestPinnedVersionOverridesPool: unpinned jobs land on a pool member and
// complete, and pinning by name overrides the pool, even for versions
// outside it.
func TestPinnedVersionOverridesPool(t *testing.T) {
	s, err := New(Options{
		QueueSize: 8, Workers: 2,
		Versions: []string{"manual-serial", "manual-omp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(JobSpec{Deck: deck(48, 5)})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Version != "manual-serial" && final.Version != "manual-omp" {
		t.Errorf("job scheduled on %q, outside the pool", final.Version)
	}

	st, err = s.Submit(JobSpec{Deck: deck(48, 2), Version: "kokkos-openmp"})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, s, st.ID); final.Version != "kokkos-openmp" || final.State != StateDone {
		t.Errorf("pinned job: version %s state %s", final.Version, final.State)
	}
}

// TestPerJobResiliencePolicy injects a NaN fault into a job running under a
// per-job checkpoint/retry policy and checks the rollback machinery absorbs
// it: the job completes, reports the recovery, and converges anyway.
func TestPerJobResiliencePolicy(t *testing.T) {
	s, err := New(Options{QueueSize: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(JobSpec{
		Deck:            deck(48, 4),
		CheckpointEvery: 1,
		MaxRetries:      2,
		FaultSpec:       "nan@2.3",
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("resilient job ended %s: %s", final.State, final.Error)
	}
	if final.Result.Recoveries < 1 {
		t.Errorf("injected fault absorbed without a recorded recovery: %+v", final.Result)
	}
	if !final.Result.Converged || final.Result.Temperature == 0 {
		t.Errorf("recovered job did not converge to a real summary: %+v", final.Result)
	}
	if s.met.recoveries.Value() < 1 {
		t.Errorf("recoveries counter = %v, want >= 1", s.met.recoveries.Value())
	}
}

func TestJobsListingAndSnapshots(t *testing.T) {
	s, err := New(Options{QueueSize: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var want []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(JobSpec{Benchmark: "bm_16"})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st.ID)
	}
	list := s.Jobs()
	if len(list) != 3 {
		t.Fatalf("Jobs() returned %d entries, want 3", len(list))
	}
	for i, st := range list {
		if st.ID != want[i] {
			t.Errorf("Jobs()[%d] = %s, want %s (submission order)", i, st.ID, want[i])
		}
	}
	if _, ok := s.Job("job-999999"); ok {
		t.Error("lookup of unknown job succeeded")
	}
	for _, id := range want {
		waitJob(t, s, id)
	}
}

func TestSubmitAfterCloseDoesNotPanic(t *testing.T) {
	s, err := New(Options{QueueSize: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(JobSpec{Deck: deck(16, 1)}); !errors.Is(err, ErrDraining) {
			t.Fatalf("submit %d after close: err = %v, want ErrDraining", i, err)
		}
	}
}

func TestDrainTimeoutSurfaces(t *testing.T) {
	s, err := New(Options{QueueSize: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Deck: deck(96, 200)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Error("drain with an impossible budget reported success")
	}
	s.Close() // now wait for real so the test leaves nothing running
}

// TestFailedJobIsCountedAndCarriesError injects a kernel panic into a job
// with no recovery policy: the job must end failed with the cause recorded,
// and the worker (and every job behind it) must survive.
func TestFailedJobIsCountedAndCarriesError(t *testing.T) {
	s, err := New(Options{QueueSize: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(JobSpec{Deck: deck(32, 2), FaultSpec: "panic@1.1"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s (%s), want failed", final.State, final.Error)
	}
	if final.Error == "" {
		t.Error("failed job carries no error")
	}
	if final.Result == nil || !final.Result.Partial {
		t.Errorf("failed job result not marked partial: %+v", final.Result)
	}
	if s.met.failed.Value() != 1 {
		t.Errorf("failed counter = %v, want 1", s.met.failed.Value())
	}
	// The worker survived the panic: the next job still runs.
	st2, err := s.Submit(JobSpec{Deck: deck(16, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if after := waitJob(t, s, st2.ID); after.State != StateDone {
		t.Errorf("job after panic ended %s (%s), want done", after.State, after.Error)
	}
}

func TestDurationJSONRoundTrip(t *testing.T) {
	for _, in := range []string{`"30s"`, `"1m30s"`, `1500000000`} {
		var d Duration
		if err := d.UnmarshalJSON([]byte(in)); err != nil {
			t.Errorf("unmarshal %s: %v", in, err)
		}
	}
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"eleven"`)); err == nil {
		t.Error("bad duration string accepted")
	}
	b, err := Duration(90 * time.Second).MarshalJSON()
	if err != nil || string(b) != `"1m30s"` {
		t.Errorf("marshal = %s, %v", b, err)
	}
}

func ExampleServer_Submit() {
	s, err := New(Options{QueueSize: 2, Workers: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Close()
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 2
	st, _ := s.Submit(JobSpec{Deck: cfg.Summary()})
	for {
		cur, _ := s.Job(st.ID)
		if cur.State != StateQueued && cur.State != StateRunning {
			fmt.Println(cur.State, cur.Result.Converged)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Output: done true
}

// TestMetricsRegistryWiring spot-checks that a completed job moves the
// counters a scrape would see, including the per-kernel families lifted
// from the profiler.
func TestMetricsRegistryWiring(t *testing.T) {
	s, err := New(Options{QueueSize: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(JobSpec{Deck: deck(32, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, s, st.ID); final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	var b strings.Builder
	s.Metrics().WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"teaserve_jobs_submitted_total 1",
		"teaserve_jobs_completed_total 1",
		"teaserve_jobs_inflight 0",
		"teaserve_queue_depth 0",
		`tealeaf_kernel_calls_total{kernel="cg_calc_w"}`,
		`tealeaf_kernel_sweeps_total{kernel="set_field"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if s.met.steps.Value() != 3 {
		t.Errorf("steps counter = %v, want 3", s.met.steps.Value())
	}
	if s.met.iterations.Value() <= 0 {
		t.Error("iteration counter never moved")
	}
	if s.Tracer().Len() == 0 {
		t.Error("tracer captured no spans")
	}
}

// TestTilingMetricsPublished: a job on the tiled OPS version must move the
// ops loop-chain counters and sweep gauges a scrape sees.
func TestTilingMetricsPublished(t *testing.T) {
	s, err := New(Options{QueueSize: 2, Workers: 1, Versions: []string{"ops-mpi-tiled"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(JobSpec{Deck: deck(24, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, s, st.ID); final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	var b strings.Builder
	s.Metrics().WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"tealeaf_ops_flushes_total",
		"tealeaf_ops_tiles_total",
		"tealeaf_ops_chains_total",
		"tealeaf_ops_sweeps_per_iter_tiled",
		"tealeaf_ops_sweeps_per_iter_untiled",
		"tealeaf_ops_max_chain_len",
		"tealeaf_ops_tile_x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, zero := range []string{
		"tealeaf_ops_flushes_total 0",
		"tealeaf_ops_tiles_total 0",
		"tealeaf_ops_sweeps_per_iter_tiled 0",
	} {
		if strings.Contains(out, zero+"\n") || strings.HasSuffix(out, zero) {
			t.Errorf("counter stuck at zero: %q", zero)
		}
	}
}
