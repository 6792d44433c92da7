package driver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// ErrSDC marks a solver invariant violation attributed to silent data
// corruption: the true residual b−Ax drifted from the recursive residual, or
// a quantity that is positive for an SPD system went negative. It lives in
// driver (not solver) so the recovery loop can classify failures without an
// import cycle; the solver package re-exports it as solver.ErrSDC. The
// resilient driver treats it like a breakdown that escaped the solver's own
// restarts: roll back to the last CRC-validated checkpoint and replay.
var ErrSDC = errors.New("silent data corruption suspected (solver invariant violated)")

// SolveStats reports what one implicit solve did. internal/solver produces
// these; driver only records them.
type SolveStats struct {
	Iterations      int     // outer solver iterations
	InnerIterations int     // PPCG polynomial steps
	HaloExchanges   int     // exchanges issued by the solve loop
	Error           float64 // final squared residual measure
	InitialError    float64
	Converged       bool
	EigMin, EigMax  float64 // spectrum estimate (Chebyshev/PPCG)
	EstChebyIters   int     // Chebyshev-theory iteration estimate
	Restarts        int     // CG breakdown restarts within the solve
	Fallbacks       int     // hops down the solver fallback chain
	SDCChecks       int     // ABFT true-residual verifications performed
}

// Solver abstracts the solve control flow so driver does not import the
// solver package (which imports driver). internal/solver provides the real
// implementation; tests may substitute stubs. The context bounds the solve:
// implementations must return promptly with partial stats when it is
// cancelled, and must tolerate a nil context (unbounded solve).
type Solver interface {
	Solve(ctx context.Context, k Kernels) (SolveStats, error)
}

// SolverFunc adapts a function to the Solver interface.
type SolverFunc func(ctx context.Context, k Kernels) (SolveStats, error)

// Solve implements Solver.
func (f SolverFunc) Solve(ctx context.Context, k Kernels) (SolveStats, error) { return f(ctx, k) }

// StepResult records one time step: the solve statistics and, when a field
// summary was due, the QA totals.
type StepResult struct {
	Step   int
	Time   float64 // simulation time after the step
	Totals *Totals // nil when no summary was taken this step
	Stats  SolveStats
}

// Result is a completed run.
type Result struct {
	Steps           []StepResult
	Final           Totals
	TotalIterations int
	TotalInner      int
	// Recoveries counts checkpoint rollbacks the resilient run loop took
	// (always 0 for plain Run).
	Recoveries int
	// SDCDetected counts step failures the resilient run loop classified as
	// silent data corruption (a solver ErrSDC or a comm CorruptionError);
	// SDCRecovered counts those repaired by rollback-and-replay. Detections
	// repaired inside the comm layer (checksummed retransmission) never
	// reach the driver and are reported by World.ChecksumStats instead.
	SDCDetected  int
	SDCRecovered int
}

// Run executes a full TeaLeaf simulation of cfg against the port k, driving
// it exactly like the mini-app's hydro loop: set_field, halo exchange,
// solve init, solve, finalise, reset, summary. If log is non-nil a per-step
// report is written to it.
func Run(cfg config.Config, k Kernels, s Solver, log io.Writer) (Result, error) {
	return RunCtx(context.Background(), cfg, k, s, log)
}

// Cause is ctx's cancellation cause, or nil, with a deadline already past on
// the clock reported as context.DeadlineExceeded before the runtime timer
// that cancels ctx has fired. That timer runs only when the scheduler gets to
// it, and a compute-bound solve never blocks: with one P, or on a loaded
// host, a short solve can run to the end past its deadline without seeing
// Done closed, and its job would settle done instead of expired. Every
// cancellation check of a run and of its solver goes through Cause.
func Cause(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	default:
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// RunCtx is Run bounded by a context: cancellation or deadline expiry stops
// the march between solver iterations and returns the partial Result
// accumulated so far alongside the cancellation cause.
func RunCtx(ctx context.Context, cfg config.Config, k Kernels, s Solver, log io.Writer) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err != nil {
		return Result{}, err
	}
	if err := k.Generate(m, cfg.States); err != nil {
		return Result{}, fmt.Errorf("driver: generate: %w", err)
	}
	k.HaloExchange([]FieldID{FieldDensity, FieldEnergy0}, 2)

	observe := stepObserverFrom(ctx)
	var res Result
	dt := cfg.InitialTimestep
	rx := dt / (m.Dx * m.Dx)
	ry := dt / (m.Dy * m.Dy)
	simTime := 0.0
	for step := 1; step <= cfg.EndStep && simTime < cfg.EndTime; step++ {
		if err := Cause(ctx); err != nil {
			return res, fmt.Errorf("driver: run cancelled before step %d: %w", step, err)
		}
		k.SetField()
		k.HaloExchange([]FieldID{FieldDensity, FieldEnergy1}, 2)
		k.SolveInit(cfg.Coefficient, rx, ry, cfg.Preconditioner)
		stats, err := s.Solve(ctx, k)
		if err != nil {
			return res, fmt.Errorf("driver: step %d: %w", step, err)
		}
		k.SolveFinalise()
		k.ResetField()
		simTime += dt

		sr := StepResult{Step: step, Time: simTime, Stats: stats}
		res.TotalIterations += stats.Iterations
		res.TotalInner += stats.InnerIterations
		// The loop ends either on step count or on simulation time; a summary
		// is due on the last iteration for *either* reason, otherwise a run
		// bounded by end_time would return a zero-valued Final and QA
		// comparisons against it would silently compare garbage.
		lastStep := step == cfg.EndStep || simTime >= cfg.EndTime
		summaryDue := lastStep ||
			(cfg.SummaryFrequency > 0 && step%cfg.SummaryFrequency == 0)
		if summaryDue {
			t := k.FieldSummary()
			sr.Totals = &t
			res.Final = t
		}
		res.Steps = append(res.Steps, sr)
		if observe != nil {
			observe(sr)
		}
		if log != nil {
			fmt.Fprintf(log, "step %4d  time %10.6f  iters %5d  error %12.5e\n",
				step, simTime, stats.Iterations, stats.Error)
			if sr.Totals != nil {
				fmt.Fprintf(log, "  volume %.6e  mass %.6e  ie %.6e  temp %.6e\n",
					sr.Totals.Volume, sr.Totals.Mass, sr.Totals.InternalEnergy, sr.Totals.Temperature)
			}
		}
	}
	return res, nil
}

// CompareTotals returns the largest relative difference across the four QA
// quantities — the measure the cross-port verification tests and the
// -qa flag of cmd/tealeaf use.
func CompareTotals(a, b Totals) float64 {
	rel := func(x, y float64) float64 {
		d := math.Abs(x - y)
		scale := math.Max(math.Abs(x), math.Abs(y))
		if scale == 0 {
			return 0
		}
		return d / scale
	}
	m := rel(a.Volume, b.Volume)
	m = math.Max(m, rel(a.Mass, b.Mass))
	m = math.Max(m, rel(a.InternalEnergy, b.InternalEnergy))
	m = math.Max(m, rel(a.Temperature, b.Temperature))
	return m
}

// CompareTotalsChecked is CompareTotals that refuses vacuous comparisons:
// two zero-valued summaries compare as identical, which is exactly what a
// run that never took a field summary produces, so QA callers should use
// this form and treat the error as a failed check rather than a pass.
func CompareTotalsChecked(a, b Totals) (float64, error) {
	if a == (Totals{}) && b == (Totals{}) {
		return 0, errors.New("driver: both field summaries are zero-valued — no summary was taken, nothing to compare")
	}
	return CompareTotals(a, b), nil
}
