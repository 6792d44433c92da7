package driver

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// restorableStub extends stubKernels with real cross-step state: energy0 is
// a live slice that every completed step increments, so a rollback (and a
// botched one) is observable in the final summary. Temperature in the
// summary reports energy0[0], i.e. the number of steps actually applied.
type restorableStub struct {
	stubKernels
	energy0  []float64
	u        []float64
	restores int
}

func (s *restorableStub) Generate(m *grid.Mesh, states []config.State) error {
	if err := s.stubKernels.Generate(m, states); err != nil {
		return err
	}
	s.energy0 = make([]float64, m.Nx*m.Ny)
	s.u = make([]float64, m.Nx*m.Ny)
	return nil
}

func (s *restorableStub) ResetField() {
	s.stubKernels.ResetField()
	for i := range s.energy0 {
		s.energy0[i]++
	}
	copy(s.u, s.energy0)
}

func (s *restorableStub) FieldSummary() Totals {
	s.log("field_summary")
	return Totals{Volume: 1, Mass: 2, InternalEnergy: 3, Temperature: s.energy0[0]}
}

func (s *restorableStub) field(id FieldID) []float64 {
	if id == FieldU {
		return s.u
	}
	return s.energy0
}

func (s *restorableStub) FetchField(id FieldID) []float64 {
	src := s.field(id)
	out := make([]float64, len(src))
	copy(out, src)
	return out
}

func (s *restorableStub) RestoreField(id FieldID, data []float64) {
	copy(s.field(id), data)
	if id == FieldEnergy0 {
		// Count recovery points, not individual fields, so the tests keep
		// asserting one restore per rollback.
		s.restores++
	}
}

// flakySolver fails (or panics) on the scheduled solve-call numbers and
// succeeds otherwise.
func flakySolver(failOn map[int]bool, panicMode bool) Solver {
	n := 0
	return SolverFunc(func(context.Context, Kernels) (SolveStats, error) {
		n++
		if failOn[n] {
			if panicMode {
				panic(errStub)
			}
			return SolveStats{}, errStub
		}
		return SolveStats{Iterations: 3, Converged: true, Error: 1e-16}, nil
	})
}

func TestRunResilientZeroPolicyIsPlainRun(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 3
	k := &restorableStub{}
	res, err := RunResilient(cfg, k, stubSolver(), nil, RecoveryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 0 || len(res.Steps) != 3 {
		t.Errorf("zero-policy run: %d steps, %d recoveries", len(res.Steps), res.Recoveries)
	}
	if k.restores != 0 {
		t.Errorf("zero policy touched RestoreField %d times", k.restores)
	}
}

// TestRunResilientRecoversSolverError: a transient step failure rolls back
// to the last checkpoint, replays, and the completed run is identical to a
// fault-free one.
func TestRunResilientRecoversSolverError(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 5
	k := &restorableStub{}
	pol := RecoveryPolicy{CheckpointEvery: 1, MaxRetries: 2}
	res, err := RunResilient(cfg, k, flakySolver(map[int]bool{3: true}, false), nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 || k.restores != 1 {
		t.Errorf("recoveries = %d, restores = %d, want 1, 1", res.Recoveries, k.restores)
	}
	if len(res.Steps) != 5 || res.Final.Temperature != 5 {
		t.Fatalf("recovered run: %d steps, final temp %g, want 5 steps at temp 5",
			len(res.Steps), res.Final.Temperature)
	}
	for i, sr := range res.Steps {
		if sr.Step != i+1 {
			t.Errorf("step record %d has Step=%d", i, sr.Step)
		}
	}
	if res.TotalIterations != 15 {
		t.Errorf("TotalIterations = %d, want 15 (replayed work must not double-count)", res.TotalIterations)
	}
}

// TestRunResilientRecoversPanic: a panic out of the step (the comm layer's
// RankError path) is contained and recovered like an error return.
func TestRunResilientRecoversPanic(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 4
	k := &restorableStub{}
	pol := RecoveryPolicy{CheckpointEvery: 1, MaxRetries: 1}
	res, err := RunResilient(cfg, k, flakySolver(map[int]bool{2: true}, true), nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 || res.Final.Temperature != 4 {
		t.Errorf("panic recovery: %d recoveries, final temp %g", res.Recoveries, res.Final.Temperature)
	}
}

// TestRunResilientRollbackTruncatesSteps: with a sparse checkpoint cadence a
// rollback discards recorded steps past the recovery point; the replayed
// steps must not be double-counted.
func TestRunResilientRollbackTruncatesSteps(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 5
	k := &restorableStub{}
	pol := RecoveryPolicy{CheckpointEvery: 2, MaxRetries: 2}
	// Fail on the 4th solve call = step 4 first attempt; last checkpoint is
	// step 2, so recorded step 3 is rolled back and replayed.
	res, err := RunResilient(cfg, k, flakySolver(map[int]bool{4: true}, false), nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 5 || res.TotalIterations != 15 {
		t.Fatalf("truncated replay: %d steps, %d iterations, want 5 and 15",
			len(res.Steps), res.TotalIterations)
	}
	if res.Final.Temperature != 5 {
		t.Errorf("final temp %g, want 5", res.Final.Temperature)
	}
}

// TestRunResilientGivesUp: a persistent failure exhausts MaxRetries and the
// final error preserves the whole failure chain.
func TestRunResilientGivesUp(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 5
	k := &restorableStub{}
	pol := RecoveryPolicy{CheckpointEvery: 1, MaxRetries: 2}
	always := SolverFunc(func(context.Context, Kernels) (SolveStats, error) { return SolveStats{}, errStub })
	_, err := RunResilient(cfg, k, always, nil, pol)
	if err == nil {
		t.Fatal("expected the run to give up")
	}
	for _, want := range []string{"giving up", "attempt 1", "attempt 2", "attempt 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error chain %q missing %q", err, want)
		}
	}
	if k.restores != 2 {
		t.Errorf("restores = %d, want 2 (one per retry)", k.restores)
	}
}

// TestRunResilientCheckpointFileResume: a second process resumes from the
// on-disk checkpoint and continues exactly where the first left off.
func TestRunResilientCheckpointFileResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 4
	k1 := &restorableStub{}
	pol := RecoveryPolicy{CheckpointEvery: 2, CheckpointPath: path}
	if _, err := RunResilient(cfg, k1, stubSolver(), nil, pol); err != nil {
		t.Fatal(err)
	}

	cfg.EndStep = 8
	k2 := &restorableStub{}
	pol.Resume = true
	res, err := RunResilient(cfg, k2, stubSolver(), nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 || res.Steps[0].Step != 5 {
		t.Fatalf("resumed run starts at step %v, want 5", res.Steps)
	}
	if res.Final.Temperature != 8 {
		t.Errorf("resumed final temp %g, want 8 (4 restored + 4 new steps)", res.Final.Temperature)
	}
	if k2.restores != 1 {
		t.Errorf("resume performed %d restores, want 1", k2.restores)
	}
}

// TestRunResilientResumeAtEnd: resuming a run whose checkpoint already sits
// at the final step marches nothing, but must still report the QA summary of
// the restored state instead of a zero-valued Final.
func TestRunResilientResumeAtEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 4
	pol := RecoveryPolicy{CheckpointEvery: 1, CheckpointPath: path}
	first, err := RunResilient(cfg, &restorableStub{}, stubSolver(), nil, pol)
	if err != nil {
		t.Fatal(err)
	}

	pol.Resume = true
	res, err := RunResilient(cfg, &restorableStub{}, stubSolver(), nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 0 {
		t.Fatalf("resume at end re-ran %d steps", len(res.Steps))
	}
	if res.Final != first.Final {
		t.Errorf("restored summary %+v differs from the original final %+v", res.Final, first.Final)
	}
}

// TestRunResilientResumeColdStart: Resume with no checkpoint file yet is a
// normal cold start, not an error.
func TestRunResilientResumeColdStart(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 2
	pol := RecoveryPolicy{
		CheckpointEvery: 1,
		CheckpointPath:  filepath.Join(t.TempDir(), "none.ckpt"),
		Resume:          true,
	}
	res, err := RunResilient(cfg, &restorableStub{}, stubSolver(), nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 || res.Steps[0].Step != 1 {
		t.Errorf("cold start ran %v", res.Steps)
	}
}

// BenchmarkRunPlain / BenchmarkRunResilientDisabled are the zero-overhead
// guard: with a zero policy the resilient entry point must cost the same as
// Run (it takes the identical path; compare ns/op between the two).
func BenchmarkRunPlain(b *testing.B) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 50
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, &restorableStub{}, stubSolver(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunResilientDisabled(b *testing.B) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 50
	for i := 0; i < b.N; i++ {
		if _, err := RunResilient(cfg, &restorableStub{}, stubSolver(), nil, RecoveryPolicy{}); err != nil {
			b.Fatal(err)
		}
	}
}
