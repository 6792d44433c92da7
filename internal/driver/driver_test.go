package driver

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// stubKernels is a minimal in-package Kernels fake recording the call
// sequence, so the step orchestration can be verified without a real port.
type stubKernels struct {
	calls []string
	nx    int
}

func (s *stubKernels) log(c string) { s.calls = append(s.calls, c) }

func (s *stubKernels) Name() string { return "stub" }
func (s *stubKernels) Generate(m *grid.Mesh, _ []config.State) error {
	s.nx = m.Nx
	s.log("generate")
	return nil
}
func (s *stubKernels) SetField()   { s.log("set_field") }
func (s *stubKernels) ResetField() { s.log("reset_field") }
func (s *stubKernels) FieldSummary() Totals {
	s.log("field_summary")
	return Totals{Volume: 1, Mass: 2, InternalEnergy: 3, Temperature: 4}
}
func (s *stubKernels) HaloExchange(fields []FieldID, depth int) { s.log("halo") }
func (s *stubKernels) SolveInit(config.Coefficient, float64, float64, config.Preconditioner) {
	s.log("solve_init")
}
func (s *stubKernels) SolveFinalise()                      { s.log("finalise") }
func (s *stubKernels) CalcResidual()                       { s.log("residual") }
func (s *stubKernels) Norm2R() float64                     { return 0 }
func (s *stubKernels) DotRZ() float64                      { return 0 }
func (s *stubKernels) ApplyPrecond()                       {}
func (s *stubKernels) CGInitP(bool) float64                { return 0 }
func (s *stubKernels) CGCalcW() float64                    { return 1 }
func (s *stubKernels) CGCalcUR(float64, bool) float64      { return 0 }
func (s *stubKernels) CGCalcP(float64, bool)               {}
func (s *stubKernels) JacobiCopyU()                        {}
func (s *stubKernels) JacobiIterate() float64              { return 0 }
func (s *stubKernels) ChebyInit(float64, bool)             {}
func (s *stubKernels) ChebyIterate(float64, float64, bool) {}
func (s *stubKernels) PPCGInitInner(float64)               {}
func (s *stubKernels) PPCGInnerIterate(float64, float64)   {}
func (s *stubKernels) PPCGFinishInner()                    {}
func (s *stubKernels) FetchField(FieldID) []float64        { return make([]float64, s.nx*s.nx) }
func (s *stubKernels) RestoreField(FieldID, []float64)     {}
func (s *stubKernels) Close()                              {}

func stubSolver() Solver {
	return SolverFunc(func(_ context.Context, k Kernels) (SolveStats, error) {
		return SolveStats{Iterations: 3, Converged: true, Error: 1e-16}, nil
	})
}

func TestRunOrchestration(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 2
	cfg.SummaryFrequency = 1
	k := &stubKernels{}
	res, err := Run(cfg, k, stubSolver(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 || res.TotalIterations != 6 {
		t.Fatalf("steps=%d iters=%d", len(res.Steps), res.TotalIterations)
	}
	seq := strings.Join(k.calls, ",")
	want := "generate,halo," +
		"set_field,halo,solve_init,finalise,reset_field,field_summary," +
		"set_field,halo,solve_init,finalise,reset_field,field_summary"
	if seq != want {
		t.Errorf("call sequence:\n got %s\nwant %s", seq, want)
	}
	if res.Final.Temperature != 4 {
		t.Errorf("final totals = %+v", res.Final)
	}
	if res.Steps[0].Totals == nil || res.Steps[1].Totals == nil {
		t.Error("summaries missing with SummaryFrequency=1")
	}
}

func TestRunSummaryOnlyAtEnd(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 3
	cfg.SummaryFrequency = 0
	k := &stubKernels{}
	res, err := Run(cfg, k, stubSolver(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].Totals != nil || res.Steps[1].Totals != nil {
		t.Error("unexpected mid-run summaries")
	}
	if res.Steps[2].Totals == nil {
		t.Error("missing final summary")
	}
}

func TestRunSummaryWhenEndTimeEndsRun(t *testing.T) {
	// Regression: a deck whose end_time is reached before end_step must
	// still take the final field summary. The loop used to key the summary
	// on step == EndStep only, so time-bounded runs returned a zero Final
	// and QA comparisons silently compared garbage.
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 10
	cfg.SummaryFrequency = 0
	cfg.EndTime = 2.5 * cfg.InitialTimestep // stops after step 3 of 10
	k := &stubKernels{}
	res, err := Run(cfg, k, stubSolver(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Steps); got != 3 {
		t.Fatalf("steps = %d, want 3 (end_time bound)", got)
	}
	if res.Final == (Totals{}) {
		t.Fatal("final summary is zero-valued: end_time-bounded run skipped the last-step summary")
	}
	if res.Steps[2].Totals == nil {
		t.Error("last step carries no summary")
	}
	if res.Steps[0].Totals != nil || res.Steps[1].Totals != nil {
		t.Error("unexpected mid-run summaries with SummaryFrequency=0")
	}
}

func TestCompareTotalsCheckedRejectsZeroPair(t *testing.T) {
	if _, err := CompareTotalsChecked(Totals{}, Totals{}); err == nil {
		t.Error("both-zero comparison must error, not pass vacuously")
	}
	a := Totals{Volume: 1, Mass: 2, InternalEnergy: 3, Temperature: 4}
	if d, err := CompareTotalsChecked(a, a); err != nil || d != 0 {
		t.Errorf("d=%v err=%v", d, err)
	}
	// One-sided zero is a real (maximal) difference, not an error.
	if d, err := CompareTotalsChecked(a, Totals{}); err != nil || d != 1 {
		t.Errorf("one-sided zero: d=%v err=%v", d, err)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.Eps = -1
	if _, err := Run(cfg, &stubKernels{}, stubSolver(), nil); err == nil {
		t.Error("expected validation error")
	}
}

func TestRunStepLog(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 1
	var b strings.Builder
	if _, err := Run(cfg, &stubKernels{}, stubSolver(), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "step") || !strings.Contains(out, "volume") {
		t.Errorf("step log missing content:\n%s", out)
	}
}

func TestCompareTotals(t *testing.T) {
	a := Totals{Volume: 100, Mass: 200, InternalEnergy: 3, Temperature: 3}
	if d := CompareTotals(a, a); d != 0 {
		t.Errorf("self-compare = %g", d)
	}
	b := a
	b.Temperature = 3.3
	if d := CompareTotals(a, b); math.Abs(d-0.3/3.3) > 1e-12 {
		t.Errorf("diff = %g", d)
	}
	var zero Totals
	if d := CompareTotals(zero, zero); d != 0 {
		t.Errorf("zero-compare = %g", d)
	}
}

func TestFieldIDStrings(t *testing.T) {
	if FieldDensity.String() != "density" || FieldKy.String() != "ky" {
		t.Error("field names wrong")
	}
	if FieldID(99).String() != "field?" {
		t.Error("out-of-range field name")
	}
}

// TestRunEndTimeTermination: the loop must stop when simulated time
// reaches end_time even if end_step allows more.
func TestRunEndTimeTermination(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 100
	cfg.InitialTimestep = 0.25
	cfg.EndTime = 1.0 // 4 steps of 0.25 reach it
	res, err := Run(cfg, &stubKernels{}, stubSolver(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 4 {
		t.Errorf("expected 4 steps before end_time, got %d", len(res.Steps))
	}
	if last := res.Steps[len(res.Steps)-1]; last.Time < 1.0-1e-12 {
		t.Errorf("final time %g < end_time", last.Time)
	}
}

// TestRunPropagatesSolverError: a failing solve aborts the run with
// context.
func TestRunPropagatesSolverError(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 3
	boom := SolverFunc(func(context.Context, Kernels) (SolveStats, error) {
		return SolveStats{}, errStub
	})
	if _, err := Run(cfg, &stubKernels{}, boom, nil); err == nil {
		t.Fatal("expected error from failing solver")
	} else if !strings.Contains(err.Error(), "step 1") {
		t.Errorf("error lacks step context: %v", err)
	}
}

var errStub = errors.New("stub solve failure")

// lateTimer is a context whose deadline has passed but whose Done channel
// has not closed: a context.WithTimeout whose runtime timer the scheduler
// has not run yet.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestRunStopsAtPastDeadlineBeforeTimer holds the run to the clock, not to
// the timer: with the deadline past and Done still open, Cause reports
// DeadlineExceeded and both run loops stop before their first step, so a
// compute-bound job that outruns its timer still ends expired.
func TestRunStopsAtPastDeadlineBeforeTimer(t *testing.T) {
	ctx := lateTimer{context.Background()}
	if err := Cause(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Cause = %v, want DeadlineExceeded", err)
	}
	if err := Cause(context.Background()); err != nil {
		t.Fatalf("Cause of a context with no deadline = %v", err)
	}
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 2
	for name, run := range map[string]func() (Result, error){
		"RunCtx": func() (Result, error) { return RunCtx(ctx, cfg, &stubKernels{}, stubSolver(), nil) },
		"RunResilientCtx": func() (Result, error) {
			return RunResilientCtx(ctx, cfg, &stubKernels{}, stubSolver(), nil, RecoveryPolicy{CheckpointEvery: 1})
		},
	} {
		res, err := run()
		if !errors.Is(err, context.DeadlineExceeded) || len(res.Steps) != 0 {
			t.Errorf("%s: %d steps, error %v; want none and DeadlineExceeded", name, len(res.Steps), err)
		}
	}
}
