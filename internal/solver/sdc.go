package solver

import (
	"context"
	"fmt"
	"math"

	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
)

// This file is the solver's ABFT (algorithm-based fault tolerance) layer:
// an opt-in invariant monitor that catches silent data corruption the
// breakdown guards cannot. The breakdown guards reject NaN/Inf and runaway
// divergence; a bit-flip that leaves a *finite, plausible* value in the
// iterate or a reduction sails through them and converges to a silently
// wrong answer. The monitor closes that hole with two invariant families:
//
//   - Drift: every K iterations (and at convergence, before the solve is
//     allowed to report success) the true residual r = b − A u is recomputed
//     from the iterate and compared against the recursively updated residual
//     measure. In exact arithmetic they are equal; in floating point they
//     track to rounding. Corruption of u decouples them — the recursive
//     recurrence keeps "converging" while the true residual does not — so
//     relative drift beyond tolerance is corruption, not noise. The
//     recomputed residual then replaces the recursive one (van der Vorst's
//     residual replacement), which is why a passing check also improves the
//     attainable accuracy rather than costing it.
//   - Sign: for an SPD operator and preconditioner, p·Ap and r·z are
//     positive. A negative value away from the convergence floor means a
//     sign-flipped reduction or corrupted state.
//
// A tripped invariant raises ErrSDC, which also chains to ErrBreakdown so
// the existing escalation ladder applies unchanged: restart from the
// iterate (MaxRestarts), fall back down the solver chain (Fallback), and
// finally roll back to the last CRC-validated checkpoint (RunResilient).

// ErrSDC re-exports driver.ErrSDC, the sentinel for a solver invariant
// violation attributed to silent data corruption. It lives in driver so the
// recovery loop can classify failures without an import cycle.
var ErrSDC = driver.ErrSDC

// errSDCBreakdown chains ErrSDC to ErrBreakdown: a detected corruption is a
// breakdown for the purposes of restart/fallback/rollback escalation, while
// errors.Is(err, ErrSDC) still identifies it as a corruption for counting.
var errSDCBreakdown = fmt.Errorf("%w: %w", ErrSDC, ErrBreakdown)

// DefaultSDCCheckEvery is the monitor interval K the CLI uses when
// -sdc-check-every is enabled without a value: one true-residual
// recomputation (two mesh sweeps and a halo) per 32 CG iterations, well
// under the <5% overhead budget BenchmarkSDCOverhead pins.
const DefaultSDCCheckEvery = 32

// DefaultSDCDriftTol is the relative drift tolerance between the true and
// recursive residual measures, scaled by the larger of the true residual
// and the initial one. Rounding keeps genuine CG drift orders of magnitude
// below it for the mesh sizes and iteration counts TeaLeaf runs; a single
// exponent- or sign-bit flip lands orders of magnitude above it.
const DefaultSDCDriftTol = 1e-8

// sdcMonitor is the resolved per-solve monitor configuration. The zero
// value is disabled: every hook is a single integer test on the hot path.
type sdcMonitor struct {
	every int
	tol   float64
}

func newSDCMonitor(opt Options) sdcMonitor {
	if opt.SDCCheckEvery <= 0 {
		return sdcMonitor{}
	}
	tol := opt.SDCDriftTol
	if tol <= 0 {
		tol = DefaultSDCDriftTol
	}
	return sdcMonitor{every: opt.SDCCheckEvery, tol: tol}
}

func (m sdcMonitor) on() bool { return m.every > 0 }

// due reports whether the periodic drift check fires at this iteration.
func (m sdcMonitor) due(iter int) bool { return m.every > 0 && iter%m.every == 0 }

// verifyResidual recomputes the true residual r = b − A u from the current
// iterate and compares its measure — r·z when preconditioned, r·r otherwise
// — against the recursive measure rrn. Drift beyond tolerance (relative to
// the larger of the true and initial measures, so the check stays
// meaningful at the convergence floor) returns an ErrSDC. On success the
// recomputed residual has replaced the recursive one in the port's state,
// and the caller should carry the returned true measure forward.
func (m sdcMonitor) verifyResidual(k driver.Kernels, precond bool, rrn float64, st *Stats) (float64, error) {
	st.SDCChecks++
	k.HaloExchange([]driver.FieldID{driver.FieldU}, 1)
	st.HaloExchanges++
	k.CalcResidual()
	var truth float64
	if precond {
		k.ApplyPrecond()
		truth = k.DotRZ()
	} else {
		truth = k.Norm2R()
	}
	if err := checkReduction(truth, st.InitialError); err != nil {
		return truth, err
	}
	scale := math.Max(math.Abs(truth), math.Abs(st.InitialError))
	if scale == 0 {
		return truth, nil
	}
	if drift := math.Abs(truth-rrn) / scale; drift > m.tol {
		return truth, fmt.Errorf(
			"solver: true residual %g drifted from recursive %g at iteration %d (relative drift %.3e > %.3e): %w",
			truth, rrn, st.Iterations, drift, m.tol, errSDCBreakdown)
	}
	return truth, nil
}

// guardSign checks the SPD positivity invariant for a reduction value:
// negative away from the convergence floor means corruption. what names the
// quantity for the error message.
func (m sdcMonitor) guardSign(what string, v, initial, eps float64, iter int) error {
	if !m.on() || v >= 0 || converged(v, initial, eps) {
		return nil
	}
	return fmt.Errorf("solver: %s = %g negative for an SPD system at iteration %d: %w",
		what, v, iter, errSDCBreakdown)
}

// ctxErr returns the context's cancellation cause, or nil, a deadline past on
// the clock included (driver.Cause). The solve loops poll it once per
// iteration; a nil context means an unbounded solve.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return driver.Cause(ctx)
}
