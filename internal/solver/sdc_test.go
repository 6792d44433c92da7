package solver

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// initSolve builds a serial chunk ready for one solve of cfg: generate,
// halos, set_field, solve_init — the same sequence the driver performs.
func initSolve(t *testing.T, cfg *config.Config) *serial.Chunk {
	t.Helper()
	k := serial.New()
	t.Cleanup(k.Close)
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Generate(m, cfg.States); err != nil {
		t.Fatal(err)
	}
	k.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy0}, 2)
	k.SetField()
	k.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy1}, 2)
	dt := cfg.InitialTimestep
	rx := dt / (m.Dx * m.Dx)
	ry := dt / (m.Dy * m.Dy)
	k.SolveInit(cfg.Coefficient, rx, ry, cfg.Preconditioner)
	return k
}

// flippingKernels wraps a port and, after a given number of CGCalcUR calls,
// flips bit 52 of one interior element of u — a finite, silent doubling of
// a solution value that no NaN/divergence guard can see, the canonical SDC
// the ABFT monitor exists to catch.
type flippingKernels struct {
	driver.Kernels
	after int
	calls int
	fired bool
}

func (f *flippingKernels) CGCalcUR(alpha float64, precond bool) float64 {
	rr := f.Kernels.CGCalcUR(alpha, precond)
	f.calls++
	if f.calls == f.after && !f.fired {
		f.fired = true
		u := f.Kernels.FetchField(driver.FieldU)
		mid := len(u) / 2
		u[mid] = math.Float64frombits(math.Float64bits(u[mid]) ^ (1 << 52))
		f.Kernels.RestoreField(driver.FieldU, u)
	}
	return rr
}

// TestSDCMonitorCleanSolve: the monitor on a fault-free solve performs its
// checks, raises nothing, and still converges to a true residual within
// tolerance.
func TestSDCMonitorCleanSolve(t *testing.T) {
	cfg := config.BenchmarkN(24)
	k := initSolve(t, &cfg)
	opt := FromConfig(&cfg)
	opt.SDCCheckEvery = 8
	st, err := Solve(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("monitored solve did not converge: %+v", st)
	}
	if st.SDCChecks == 0 {
		t.Fatal("monitor enabled but no checks performed")
	}
	k.HaloExchange([]driver.FieldID{driver.FieldU}, 1)
	k.CalcResidual()
	if true2 := k.Norm2R(); true2 > 10*cfg.Eps*st.InitialError {
		t.Errorf("true residual %g too large after monitored solve (initial %g)", true2, st.InitialError)
	}
}

// TestSDCMonitorDetectsStateFlip: a bit-52 flip of a u element decouples
// the true residual from the recursive one; the drift check catches it and
// the solve fails with ErrSDC (which also chains to ErrBreakdown, so the
// escalation ladder applies).
func TestSDCMonitorDetectsStateFlip(t *testing.T) {
	cfg := config.BenchmarkN(24)
	k := initSolve(t, &cfg)
	opt := FromConfig(&cfg)
	opt.SDCCheckEvery = 2
	opt.MaxRestarts = 0 // a restart would self-heal the iterate; surface the error instead
	_, err := Solve(&flippingKernels{Kernels: k, after: 3}, opt)
	if !errors.Is(err, ErrSDC) {
		t.Fatalf("err = %v, want ErrSDC", err)
	}
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("ErrSDC must chain to ErrBreakdown for the escalation ladder, got %v", err)
	}
}

// TestSDCSilentWithoutMonitor: the negative control — the identical flip
// with the monitor off sails through every breakdown guard: the solve
// "converges" (on the recursive residual) while the true residual reveals
// the answer is finite and wrong.
func TestSDCSilentWithoutMonitor(t *testing.T) {
	cfg := config.BenchmarkN(24)
	k := initSolve(t, &cfg)
	opt := FromConfig(&cfg)
	fk := &flippingKernels{Kernels: k, after: 3}
	st, err := Solve(fk, opt)
	if !fk.fired {
		t.Fatal("fault never injected (solve converged too early?)")
	}
	if err != nil {
		t.Fatalf("unmonitored solve errored (guards should not see a finite flip): %v", err)
	}
	if !st.Converged {
		t.Fatalf("unmonitored solve did not converge: %+v", st)
	}
	k.HaloExchange([]driver.FieldID{driver.FieldU}, 1)
	k.CalcResidual()
	true2 := k.Norm2R()
	if math.IsNaN(true2) || math.IsInf(true2, 0) {
		t.Fatalf("true residual is non-finite (%v): flip was not silent", true2)
	}
	if true2 < 1e3*cfg.Eps*st.InitialError {
		t.Fatalf("true residual %g too small — the flip did not corrupt the answer (initial %g)",
			true2, st.InitialError)
	}
}

// TestSDCSignGuard: a negative r·z away from the convergence floor — the
// signature of a sign-flipped reduction — trips the SPD invariant.
func TestSDCSignGuard(t *testing.T) {
	k := &seqStub{ur: []float64{-0.5}}
	opt := cgBreakOpts()
	opt.SDCCheckEvery = 1000 // monitor on; periodic drift check never due
	_, err := Solve(k, opt)
	if !errors.Is(err, ErrSDC) {
		t.Fatalf("err = %v, want ErrSDC from the sign guard", err)
	}

	// The same sequence with the monitor off is invisible: a finite
	// negative reduction passes every breakdown guard.
	k2 := &seqStub{ur: []float64{-0.5, 1e-30}}
	if _, err := Solve(k2, cgBreakOpts()); errors.Is(err, ErrSDC) {
		t.Fatalf("sign guard fired with monitor off: %v", err)
	}
}

// TestSDCDriftGuardScripted: scripted reductions where the recursive
// residual (1e-3) disagrees with the recomputed truth (the stub's Norm2R
// returns 1): the periodic drift check raises ErrSDC.
func TestSDCDriftGuardScripted(t *testing.T) {
	k := &seqStub{ur: []float64{1e-3}}
	opt := cgBreakOpts()
	opt.SDCCheckEvery = 1
	_, err := Solve(k, opt)
	if !errors.Is(err, ErrSDC) {
		t.Fatalf("err = %v, want ErrSDC from the drift check", err)
	}
	found := false
	for _, call := range k.trace {
		if call == "CalcResidual" {
			found = true
		}
	}
	if !found {
		t.Fatal("drift check never recomputed the true residual")
	}
}

// TestSolveCtxCancelled: a cancelled context stops the solve before any
// iteration and surfaces the cancellation cause, not a breakdown.
func TestSolveCtxCancelled(t *testing.T) {
	cfg := config.BenchmarkN(16)
	k := initSolve(t, &cfg)
	ctx, cancel := context.WithCancelCause(context.Background())
	sentinel := errors.New("deadline budget spent")
	cancel(sentinel)
	st, err := SolveCtx(ctx, k, FromConfig(&cfg))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
	if errors.Is(err, ErrBreakdown) {
		t.Fatal("cancellation must not look like a breakdown (would trigger restarts/fallbacks)")
	}
	if st.Iterations != 0 {
		t.Fatalf("pre-cancelled solve ran %d iterations", st.Iterations)
	}
}

// TestSolveCtxMidSolveCancel: cancellation mid-solve returns the partial
// stats accumulated so far.
func TestSolveCtxMidSolveCancel(t *testing.T) {
	cfg := config.BenchmarkN(24)
	k := initSolve(t, &cfg)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	stop := &cancelAfter{Kernels: k, n: &n, cancel: cancel, after: 3}
	opt := FromConfig(&cfg)
	st, err := SolveCtx(ctx, stop, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Iterations < 3 || st.Iterations >= opt.MaxIters {
		t.Fatalf("partial stats: %d iterations", st.Iterations)
	}
}

// cancelAfter cancels its context after n CGCalcUR calls.
type cancelAfter struct {
	driver.Kernels
	n      *int
	after  int
	cancel context.CancelFunc
}

func (c *cancelAfter) CGCalcUR(alpha float64, precond bool) float64 {
	rr := c.Kernels.CGCalcUR(alpha, precond)
	*c.n++
	if *c.n == c.after {
		c.cancel()
	}
	return rr
}
