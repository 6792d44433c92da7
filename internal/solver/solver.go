// Package solver implements the TeaLeaf solve control flow — conjugate
// gradient, Jacobi, Chebyshev and polynomially-preconditioned CG — on top
// of any port's kernel set (driver.Kernels). This mirrors the mini-app's
// structure, where tea_leaf.f90 drives per-port kernels; keeping the
// control flow in one place guarantees every port performs the same
// operations in the same order, so ports are comparable and verifiable
// against each other.
//
// Concurrency and ownership: a Solver is single-goroutine — the driver
// calls it sequentially, and all parallelism lives below the kernel
// boundary inside the port (thread teams, ranks, simulated-GPU blocks).
// The solver owns no field memory; it orchestrates the port's kernels,
// which own their fields, and carries only scalar iteration state between
// calls. One Solver instance drives one solve at a time.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
)

// Options configures one solve. Construct from a config.Config with
// FromConfig.
type Options struct {
	Solver         config.SolverKind
	Eps            float64 // relative convergence tolerance on the squared residual norm
	MaxIters       int
	Precond        bool // diagonal (Jacobi) preconditioning for CG/Chebyshev
	PPCGInnerSteps int
	EigenCGIters   int // CG iterations used to bootstrap eigenvalue estimates

	// MaxRestarts bounds how many times a broken-down CG solve restarts
	// from its current iterate (recomputing the residual and search
	// direction) before the breakdown escalates. 0 disables restarts.
	MaxRestarts int

	// SDCCheckEvery enables the ABFT invariant monitor: every K iterations
	// — and always at convergence, before success is reported — the true
	// residual b − A u is recomputed and compared against the recursive
	// one, and SPD sign invariants are enforced on the CG reductions. A
	// tripped invariant raises ErrSDC (which also chains to ErrBreakdown,
	// so the restart/fallback/rollback ladder applies). <= 0 disables the
	// monitor entirely (the default): the monitored trajectory differs at
	// rounding level from the unmonitored one, so turning it on is an
	// explicit choice, not a silent default.
	SDCCheckEvery int
	// SDCDriftTol overrides the relative true-vs-recursive drift tolerance;
	// <= 0 takes DefaultSDCDriftTol.
	SDCDriftTol float64
	// Fallback is the graceful-degradation chain: when the configured
	// solver (and its restarts) break down, each listed solver is tried in
	// turn on the current iterate — e.g. cg → jacobi. Every hop is recorded
	// in Stats.Fallbacks.
	Fallback []config.SolverKind
}

// FromConfig extracts the solve options from a run configuration.
func FromConfig(cfg *config.Config) Options {
	return Options{
		Solver:         cfg.Solver,
		Eps:            cfg.Eps,
		MaxIters:       cfg.MaxIters,
		Precond:        cfg.Preconditioner != config.PrecondNone,
		PPCGInnerSteps: cfg.PPCGInnerSteps,
		EigenCGIters:   cfg.EigenCGIters,
	}
}

// Stats reports what one solve did.
type Stats struct {
	Iterations      int     // outer solver iterations
	InnerIterations int     // PPCG polynomial steps (0 for other solvers)
	HaloExchanges   int     // exchanges issued by the solve loop
	Error           float64 // final squared residual measure
	InitialError    float64 // initial squared residual measure
	Converged       bool
	EigMin, EigMax  float64 // spectrum estimate (Chebyshev/PPCG only)
	// EstChebyIters is the iteration count Chebyshev theory predicts for
	// the requested tolerance given the spectrum estimate (the mini-app's
	// est_itc); 0 for solvers that do not estimate it.
	EstChebyIters int
	// Restarts counts CG restarts from the current iterate after a
	// detected breakdown (zero/NaN p·w, non-finite or diverging residual).
	Restarts int
	// Fallbacks counts hops down the Options.Fallback degradation chain.
	Fallbacks int
	// SDCChecks counts ABFT true-residual verifications performed (0 when
	// the monitor is disabled). A detection surfaces as an ErrSDC error,
	// not a counter: the solve cannot continue on corrupted state.
	SDCChecks int
}

// Solve runs one implicit conduction solve with the configured method. The
// caller must already have called k.SolveInit (and exchanged the halos it
// needs); Solve leaves u converged and r consistent with it.
//
// When the configured solver breaks down (ErrBreakdown: indefinite
// operator, non-finite reduction, diverging residual) and Options.Fallback
// names alternatives, Solve degrades down the chain: each fallback resumes
// from the current iterate u with a freshly computed residual and a full
// iteration budget, and every hop is counted in Stats.Fallbacks. Breakdown
// escalates only after the whole chain is exhausted.
func Solve(k driver.Kernels, opt Options) (Stats, error) {
	return SolveCtx(context.Background(), k, opt)
}

// SolveCtx is Solve bounded by a context: the iteration loops poll it once
// per iteration and return the partial Stats accumulated so far with the
// cancellation cause when it fires. Cancellation is not a breakdown — it
// never triggers restarts or the fallback chain. A nil context solves
// unbounded.
func SolveCtx(ctx context.Context, k driver.Kernels, opt Options) (Stats, error) {
	if opt.MaxIters <= 0 {
		return Stats{}, fmt.Errorf("solver: MaxIters must be positive, got %d", opt.MaxIters)
	}
	if opt.Eps <= 0 {
		return Stats{}, fmt.Errorf("solver: Eps must be positive, got %g", opt.Eps)
	}
	st, err := solveWith(ctx, k, opt, opt.Solver)
	if err == nil || !errors.Is(err, ErrBreakdown) {
		return st, err
	}
	for _, fb := range opt.Fallback {
		st.Fallbacks++
		// Resume from the current iterate: recompute r = u0 - A u (and z)
		// so the fallback starts from consistent state rather than the
		// wreckage of the broken-down iteration.
		k.HaloExchange([]driver.FieldID{driver.FieldU}, 1)
		st.HaloExchanges++
		k.CalcResidual()
		if opt.Precond {
			k.ApplyPrecond()
		}
		fbOpt := opt
		fbOpt.Solver = fb
		fbSt, fbErr := solveWith(ctx, k, fbOpt, fb)
		mergeStats(&st, fbSt)
		if fbErr == nil {
			return st, nil
		}
		if !errors.Is(fbErr, ErrBreakdown) {
			return st, fbErr
		}
		err = fbErr
	}
	return st, fmt.Errorf("solver: fallback chain exhausted after %d hops: %w", st.Fallbacks, err)
}

// solveWith dispatches one solver kind.
func solveWith(ctx context.Context, k driver.Kernels, opt Options, kind config.SolverKind) (Stats, error) {
	switch kind {
	case config.SolverCG:
		return solveCG(ctx, k, opt)
	case config.SolverJacobi:
		return solveJacobi(ctx, k, opt)
	case config.SolverChebyshev:
		return solveChebyshev(ctx, k, opt)
	case config.SolverPPCG:
		return solvePPCG(ctx, k, opt)
	default:
		return Stats{}, fmt.Errorf("solver: unknown solver kind %v", kind)
	}
}

// mergeStats folds the stats of a fallback solve into the running total:
// work accumulates, convergence state is taken from the latest attempt.
func mergeStats(st *Stats, s Stats) {
	st.Iterations += s.Iterations
	st.InnerIterations += s.InnerIterations
	st.HaloExchanges += s.HaloExchanges
	st.Restarts += s.Restarts
	st.Fallbacks += s.Fallbacks
	st.SDCChecks += s.SDCChecks
	st.Error = s.Error
	st.Converged = s.Converged
	if s.EigMin != 0 || s.EigMax != 0 {
		st.EigMin, st.EigMax = s.EigMin, s.EigMax
		st.EstChebyIters = s.EstChebyIters
	}
}

// converged implements the convergence test shared by the Krylov solvers: a
// relative reduction of the squared residual measure below eps, guarded for
// an identically-zero initial residual (already solved).
func converged(err, initial, eps float64) bool {
	if initial == 0 {
		return true
	}
	return math.Abs(err) < eps*math.Abs(initial)
}

// ErrBreakdown marks any numerical breakdown of an iterative solve: an
// indefinite operator (zero or NaN p·w), a non-finite residual reduction, or
// a diverging residual. Callers match it with errors.Is to decide whether
// restarting or falling back to a different solver could still succeed.
var ErrBreakdown = errors.New("solver: numerical breakdown")

var errIndefinite = fmt.Errorf("operator appears indefinite (zero or NaN p·w): %w", ErrBreakdown)

// divergenceFactor is the growth of the squared residual over its initial
// value past which a solve is declared diverging rather than converging
// slowly. CG residuals oscillate, so the bound is deliberately enormous —
// it exists to catch runaway growth from corrupted state, not slow solves.
const divergenceFactor = 1e12

// checkReduction is the cheap guard applied to every residual reduction the
// iteration loops consume: rejects NaN/Inf and runaway growth. Two float
// comparisons per iteration — negligible next to a mesh sweep.
func checkReduction(rrn, initial float64) error {
	if math.IsNaN(rrn) || math.IsInf(rrn, 0) {
		return fmt.Errorf("non-finite residual reduction %v: %w", rrn, ErrBreakdown)
	}
	if initial != 0 && math.Abs(rrn) > divergenceFactor*math.Abs(initial) {
		return fmt.Errorf("residual diverged (%g from initial %g): %w", rrn, initial, ErrBreakdown)
	}
	return nil
}

// cgIteration performs one CG iteration and returns the new rr. The alpha
// and beta used are appended to the provided slices when they are non-nil
// (the eigenvalue bootstrap records them). With the monitor on, the SPD
// sign invariants are enforced on both reductions: p·Ap and r·z are
// positive away from the convergence floor, so a negative value — the
// signature of a sign-flipped reduction — raises ErrSDC instead of folding
// into alpha and silently steering the iterate.
//
// The halo exchange of p is the caller's responsibility, issued right after
// the CGCalcP (or CGInitP) that produced p rather than at the head of the
// next iteration. The global kernel sequence is identical — ...CGCalcP,
// halo(p), CGCalcW... either way — but keeping the exchange adjacent to the
// loops it depends on makes the cross-iteration chain
// [cg_calc_p → halo(p) → cg_calc_w] explicit: on a tiling ops context those
// loops queue as one chain and execute cache-resident at the p·w demand,
// and the converged exit skips the dangling exchange entirely.
func cgIteration(k driver.Kernels, opt Options, rro float64, alphas, betas *[]float64, st *Stats, mon sdcMonitor) (float64, error) {
	pw := k.CGCalcW()
	if pw == 0 || math.IsNaN(pw) || math.IsInf(pw, 0) {
		return 0, errIndefinite
	}
	if err := mon.guardSign("p·Ap", pw, st.InitialError, opt.Eps, st.Iterations); err != nil {
		return 0, err
	}
	alpha := rro / pw
	rrn := k.CGCalcUR(alpha, opt.Precond)
	if err := checkReduction(rrn, st.InitialError); err != nil {
		return 0, err
	}
	if err := mon.guardSign("r·z", rrn, st.InitialError, opt.Eps, st.Iterations); err != nil {
		return 0, err
	}
	beta := rrn / rro
	k.CGCalcP(beta, opt.Precond)
	if alphas != nil {
		*alphas = append(*alphas, alpha)
	}
	if betas != nil {
		*betas = append(*betas, beta)
	}
	st.Iterations++
	return rrn, nil
}

func solveCG(ctx context.Context, k driver.Kernels, opt Options) (Stats, error) {
	var st Stats
	mon := newSDCMonitor(opt)
	rro := k.CGInitP(opt.Precond)
	st.InitialError = rro
	st.Error = rro
	if converged(rro, rro, opt.Eps) && rro == 0 {
		st.Converged = true
		return st, nil
	}
	// Prologue exchange for the p CGInitP just wrote; every later exchange
	// rides the tail of the iteration that rewrote p (see cgIteration).
	k.HaloExchange([]driver.FieldID{driver.FieldP}, 1)
	st.HaloExchanges++
	for st.Iterations < opt.MaxIters {
		if cerr := ctxErr(ctx); cerr != nil {
			return st, cerr
		}
		rrn, err := cgIteration(k, opt, rro, nil, nil, &st, mon)
		if err == nil {
			rro = rrn
			st.Error = rrn
			conv := converged(rrn, st.InitialError, opt.Eps)
			if mon.on() && (conv || mon.due(st.Iterations)) {
				// The drift check doubles as residual replacement: on
				// success the port's r (and z) hold the freshly recomputed
				// true residual, so the recursion continues from truth. At
				// convergence it is the gate that blocks a false success —
				// a corrupted iterate whose recursive residual kept
				// shrinking fails here, never reaching the caller as a
				// converged solve.
				var truth float64
				truth, err = mon.verifyResidual(k, opt.Precond, rrn, &st)
				if err == nil && !conv {
					rro, st.Error = truth, truth
				}
			}
			if err == nil {
				if conv {
					st.Converged = true
					return st, nil
				}
				if st.Iterations < opt.MaxIters {
					k.HaloExchange([]driver.FieldID{driver.FieldP}, 1)
					st.HaloExchanges++
				}
				continue
			}
		}
		if !errors.Is(err, ErrBreakdown) || st.Restarts >= opt.MaxRestarts {
			return st, err
		}
		// Restart from the current iterate: recompute r = u0 - A u and
		// rebuild the Krylov space from scratch. This is the classic
		// restarted-CG recovery — it sacrifices the accumulated
		// conjugacy but keeps all progress made on u. If u itself was
		// poisoned (NaN reached it before the guard fired), the
		// recomputed rro fails checkReduction and the breakdown
		// escalates instead of looping.
		st.Restarts++
		k.HaloExchange([]driver.FieldID{driver.FieldU}, 1)
		st.HaloExchanges++
		k.CalcResidual()
		if opt.Precond {
			k.ApplyPrecond()
		}
		rro = k.CGInitP(opt.Precond)
		if err := checkReduction(rro, st.InitialError); err != nil {
			return st, err
		}
		if rro == 0 {
			st.Error = 0
			st.Converged = true
			return st, nil
		}
		k.HaloExchange([]driver.FieldID{driver.FieldP}, 1)
		st.HaloExchanges++
	}
	return st, nil
}

// solveJacobi has no drift monitor: every sweep recomputes the update norm
// directly from u, so there is no recursive quantity to drift — a corrupted
// iterate either self-corrects (Jacobi is a contraction towards the same
// fixed point from any state) or trips the non-finite guard.
func solveJacobi(ctx context.Context, k driver.Kernels, opt Options) (Stats, error) {
	var st Stats
	for st.Iterations < opt.MaxIters {
		if cerr := ctxErr(ctx); cerr != nil {
			return st, cerr
		}
		k.HaloExchange([]driver.FieldID{driver.FieldU}, 1)
		st.HaloExchanges++
		k.JacobiCopyU()
		err := k.JacobiIterate()
		st.Iterations++
		st.Error = err
		if math.IsNaN(err) || math.IsInf(err, 0) {
			return st, fmt.Errorf("solver: non-finite Jacobi update norm %v: %w", err, ErrBreakdown)
		}
		if st.Iterations == 1 {
			st.InitialError = err
		}
		// The mini-app's Jacobi converges on the absolute update norm.
		if err < opt.Eps {
			st.Converged = true
			return st, nil
		}
	}
	return st, nil
}

// bootstrapCG runs the eigenvalue-estimation CG phase shared by Chebyshev
// and PPCG: plain (optionally diagonal-preconditioned) CG for up to
// opt.EigenCGIters iterations, recording alphas and betas. It may converge
// outright, in which case done is true.
func bootstrapCG(ctx context.Context, k driver.Kernels, opt Options, st *Stats) (rro float64, alphas, betas []float64, done bool, err error) {
	mon := newSDCMonitor(opt)
	rro = k.CGInitP(opt.Precond)
	st.InitialError = rro
	st.Error = rro
	if rro == 0 {
		st.Converged = true
		return rro, nil, nil, true, nil
	}
	iters := opt.EigenCGIters
	if iters < 2 {
		iters = 2
	}
	if iters > opt.MaxIters {
		iters = opt.MaxIters
	}
	k.HaloExchange([]driver.FieldID{driver.FieldP}, 1)
	st.HaloExchanges++
	for n := 0; n < iters; n++ {
		if cerr := ctxErr(ctx); cerr != nil {
			return rro, alphas, betas, false, cerr
		}
		rrn, cgErr := cgIteration(k, opt, rro, &alphas, &betas, st, mon)
		if cgErr != nil {
			return rro, alphas, betas, false, cgErr
		}
		rro = rrn
		st.Error = rrn
		if converged(rrn, st.InitialError, opt.Eps) {
			st.Converged = true
			return rro, alphas, betas, true, nil
		}
		if n+1 < iters {
			k.HaloExchange([]driver.FieldID{driver.FieldP}, 1)
			st.HaloExchanges++
		}
	}
	return rro, alphas, betas, false, nil
}

// chebyCoeffs holds the scalar recurrence state of a Chebyshev iteration
// over the interval [eigMin, eigMax].
type chebyCoeffs struct {
	theta, delta, sigma float64
	rho                 float64
}

func newChebyCoeffs(eigMin, eigMax float64) chebyCoeffs {
	theta := (eigMax + eigMin) / 2
	delta := (eigMax - eigMin) / 2
	sigma := theta / delta
	return chebyCoeffs{theta: theta, delta: delta, sigma: sigma, rho: 1 / sigma}
}

// next advances the recurrence and returns the (alpha, beta) scalars of the
// next smoothing step: sd = alpha*sd + beta*r.
func (c *chebyCoeffs) next() (alpha, beta float64) {
	rhoNew := 1 / (2*c.sigma - c.rho)
	alpha = rhoNew * c.rho
	beta = rhoNew * 2 / c.delta
	c.rho = rhoNew
	return alpha, beta
}

func solveChebyshev(ctx context.Context, k driver.Kernels, opt Options) (Stats, error) {
	var st Stats
	mon := newSDCMonitor(opt)
	_, alphas, betas, done, err := bootstrapCG(ctx, k, opt, &st)
	if err != nil || done {
		return st, err
	}
	eigMin, eigMax, err := EstimateEigenvalues(alphas, betas)
	if err != nil {
		return st, err
	}
	st.EigMin, st.EigMax = eigMin, eigMax
	st.EstChebyIters = EstimateChebyIters(eigMin, eigMax, opt.Eps)
	cc := newChebyCoeffs(eigMin, eigMax)
	k.ChebyInit(cc.theta, opt.Precond)
	// The residual-norm reduction check costs a full reduction, so like the
	// mini-app we only check periodically.
	const checkEvery = 10
	for st.Iterations < opt.MaxIters {
		if cerr := ctxErr(ctx); cerr != nil {
			return st, cerr
		}
		k.HaloExchange([]driver.FieldID{driver.FieldSD}, 1)
		st.HaloExchanges++
		alpha, beta := cc.next()
		k.ChebyIterate(alpha, beta, opt.Precond)
		st.Iterations++
		if st.Iterations%checkEvery == 0 || st.Iterations == opt.MaxIters {
			rrn := k.Norm2R()
			st.Error = rrn
			if err := checkReduction(rrn, st.InitialError); err != nil {
				return st, err
			}
			conv := converged(rrn, st.InitialError, opt.Eps)
			if mon.on() && (conv || mon.due(st.Iterations)) {
				// Chebyshev updates r recursively, so the same drift check
				// applies: recompute r = u0 − A u (in r·r space — the
				// measure this loop converges on) and compare. On success z
				// is refreshed so the smoothing recursion continues from
				// the replaced residual.
				if _, verr := mon.verifyResidual(k, false, rrn, &st); verr != nil {
					return st, verr
				}
				if opt.Precond {
					k.ApplyPrecond()
				}
			}
			if conv {
				st.Converged = true
				return st, nil
			}
		}
	}
	return st, nil
}

func solvePPCG(ctx context.Context, k driver.Kernels, opt Options) (Stats, error) {
	var st Stats
	if opt.PPCGInnerSteps <= 0 {
		return st, fmt.Errorf("solver: PPCG needs positive inner steps, got %d", opt.PPCGInnerSteps)
	}
	mon := newSDCMonitor(opt)
	// Bootstrap with plain CG (never diagonal-preconditioned here: the
	// polynomial preconditioner replaces it) to estimate the spectrum.
	bootOpt := opt
	bootOpt.Precond = false
	_, alphas, betas, done, err := bootstrapCG(ctx, k, bootOpt, &st)
	if err != nil || done {
		return st, err
	}
	eigMin, eigMax, err := EstimateEigenvalues(alphas, betas)
	if err != nil {
		return st, err
	}
	st.EigMin, st.EigMax = eigMin, eigMax

	// applyPoly computes z = P(A) r with a fixed number of Chebyshev
	// smoothing steps — the polynomial preconditioner. P is an SPD
	// polynomial of A on [eigMin, eigMax], so outer CG theory applies.
	applyPoly := func() {
		cc := newChebyCoeffs(eigMin, eigMax)
		k.PPCGInitInner(cc.theta)
		for s := 0; s < opt.PPCGInnerSteps; s++ {
			k.HaloExchange([]driver.FieldID{driver.FieldSD}, 1)
			st.HaloExchanges++
			alpha, beta := cc.next()
			k.PPCGInnerIterate(alpha, beta)
			st.InnerIterations++
		}
		k.PPCGFinishInner()
	}

	applyPoly()
	rro := k.CGInitP(true) // p = z, rro = r.z
	// As in solveCG, p's exchange rides the tail of the kernel that wrote p.
	k.HaloExchange([]driver.FieldID{driver.FieldP}, 1)
	st.HaloExchanges++
	for st.Iterations < opt.MaxIters {
		if cerr := ctxErr(ctx); cerr != nil {
			return st, cerr
		}
		pw := k.CGCalcW()
		if pw == 0 || math.IsNaN(pw) || math.IsInf(pw, 0) {
			return st, errIndefinite
		}
		if err := mon.guardSign("p·Ap", pw, st.InitialError, opt.Eps, st.Iterations); err != nil {
			return st, err
		}
		alpha := rro / pw
		rrTrue := k.CGCalcUR(alpha, false) // plain r.r for the convergence test
		st.Iterations++
		st.Error = rrTrue
		if err := checkReduction(rrTrue, st.InitialError); err != nil {
			return st, err
		}
		conv := converged(rrTrue, st.InitialError, opt.Eps)
		if mon.on() && (conv || mon.due(st.Iterations)) {
			// PPCG converges on the plain r·r, so the drift check compares
			// in that space; the replaced residual feeds the next applyPoly
			// (which rebuilds z from r), so no scalar state needs fixing up.
			if _, verr := mon.verifyResidual(k, false, rrTrue, &st); verr != nil {
				return st, verr
			}
		}
		if conv {
			st.Converged = true
			return st, nil
		}
		applyPoly()
		rrn := k.DotRZ()
		beta := rrn / rro
		k.CGCalcP(beta, true)
		rro = rrn
		if st.Iterations < opt.MaxIters {
			k.HaloExchange([]driver.FieldID{driver.FieldP}, 1)
			st.HaloExchanges++
		}
	}
	return st, nil
}

// EstimateChebyIters predicts how many Chebyshev iterations reduce the
// error by eps for a spectrum in [eigMin, eigMax] — the mini-app's est_itc
// diagnostic: with condition number cn, the per-iteration contraction is
// (sqrt(cn)-1)/(sqrt(cn)+1), so it takes about ln(eps)/ln(contraction)
// iterations.
func EstimateChebyIters(eigMin, eigMax, eps float64) int {
	if eigMin <= 0 || eigMax <= eigMin || eps <= 0 || eps >= 1 {
		return 0
	}
	cn := eigMax / eigMin
	contraction := (math.Sqrt(cn) - 1) / (math.Sqrt(cn) + 1)
	if contraction <= 0 {
		return 1
	}
	return int(math.Ceil(math.Log(eps) / math.Log(contraction)))
}
