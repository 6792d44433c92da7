package solver

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// stubKernels is a minimal driver.Kernels that records which CG entry
// points the solver dispatches into. Its reductions are chosen so one CG
// iteration converges: rro = 1, pw = 1, and the post-update rr is tiny.
type stubKernels struct {
	calls []string
}

func (s *stubKernels) Name() string                              { return "stub" }
func (s *stubKernels) Generate(*grid.Mesh, []config.State) error { return nil }
func (s *stubKernels) SetField()                                 {}
func (s *stubKernels) FieldSummary() driver.Totals               { return driver.Totals{} }
func (s *stubKernels) HaloExchange([]driver.FieldID, int)        {}
func (s *stubKernels) SolveInit(config.Coefficient, float64, float64, config.Preconditioner) {
}
func (s *stubKernels) SolveFinalise()       {}
func (s *stubKernels) ResetField()          {}
func (s *stubKernels) CalcResidual()        {}
func (s *stubKernels) Norm2R() float64      { return 1 }
func (s *stubKernels) DotRZ() float64       { return 1 }
func (s *stubKernels) ApplyPrecond()        {}
func (s *stubKernels) CGInitP(bool) float64 { return 1 }
func (s *stubKernels) CGCalcW() float64 {
	s.calls = append(s.calls, "CGCalcW")
	return 1
}
func (s *stubKernels) CGCalcUR(float64, bool) float64 {
	s.calls = append(s.calls, "CGCalcUR")
	return 1e-30
}
func (s *stubKernels) CGCalcP(float64, bool)               {}
func (s *stubKernels) JacobiCopyU()                        {}
func (s *stubKernels) JacobiIterate() float64              { return 0 }
func (s *stubKernels) ChebyInit(float64, bool)             {}
func (s *stubKernels) ChebyIterate(float64, float64, bool) {}
func (s *stubKernels) PPCGInitInner(float64)               {}
func (s *stubKernels) PPCGInnerIterate(float64, float64)   {}
func (s *stubKernels) PPCGFinishInner()                    {}
func (s *stubKernels) FetchField(driver.FieldID) []float64 { return nil }
func (s *stubKernels) Close()                              {}

// fusedStub also has methods named like the retired fused entry points.
type fusedStub struct {
	stubKernels
}

func (s *fusedStub) CGCalcWFused() float64 {
	s.calls = append(s.calls, "CGCalcWFused")
	return 1
}

func (s *fusedStub) CGCalcURFused(float64, bool) float64 {
	s.calls = append(s.calls, "CGCalcURFused")
	return 1e-30
}

var cgOpts = Options{Solver: config.SolverCG, Eps: 1e-10, MaxIters: 5}

// TestCGDispatchFusedPath: CGCalcW and CGCalcUR are every port's one-sweep
// kernels and the CG loop's only entry points for them. A port that also
// has methods named like the retired fused entry points is driven through
// CGCalcW and CGCalcUR all the same.
func TestCGDispatchFusedPath(t *testing.T) {
	k := &fusedStub{}
	st, err := Solve(k, cgOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations != 1 {
		t.Fatalf("stub solve: %+v", st)
	}
	want := []string{"CGCalcW", "CGCalcUR"}
	if len(k.calls) != len(want) || k.calls[0] != want[0] || k.calls[1] != want[1] {
		t.Errorf("port drove %v, want %v", k.calls, want)
	}
}

// TestCGDispatchFallbackPath: a port with nothing beyond driver.Kernels is
// driven through CGCalcW and CGCalcUR, once each per iteration.
func TestCGDispatchFallbackPath(t *testing.T) {
	k := &stubKernels{}
	st, err := Solve(k, cgOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations != 1 {
		t.Fatalf("stub solve: %+v", st)
	}
	want := []string{"CGCalcW", "CGCalcUR"}
	if len(k.calls) != len(want) || k.calls[0] != want[0] || k.calls[1] != want[1] {
		t.Errorf("plain port drove %v, want %v", k.calls, want)
	}
}
