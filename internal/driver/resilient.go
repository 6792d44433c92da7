package driver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/checkpoint"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// RecoveryPolicy configures the resilient run loop. The zero value disables
// every resilience feature, and RunResilient with a zero policy takes
// exactly the plain Run path — no checkpoints, no recover, no overhead.
type RecoveryPolicy struct {
	// CheckpointEvery is the step interval between recovery points; <= 0
	// disables checkpointing (and with it rollback recovery).
	CheckpointEvery int
	// MaxRetries bounds consecutive failed attempts at the same step before
	// the run gives up. Retries reset whenever a step completes, so a run
	// limping through many transient faults is not capped globally.
	MaxRetries int
	// Backoff is the base of the retry delay: before consecutive retry n
	// the run sleeps a full-jittered uniform draw from
	// [0, Backoff<<(n-1)), capped at one minute (see BackoffDelay).
	// 0 retries immediately.
	Backoff time.Duration
	// CheckpointPath, when set, mirrors every checkpoint to this file with
	// checkpoint.Save (atomic rename, CRC-validated on load).
	CheckpointPath string
	// Resume starts the run from the checkpoint at CheckpointPath when one
	// exists and validates, instead of from step 1. A missing file is a cold
	// start, not an error; a corrupt file aborts (silently ignoring a bad
	// checkpoint would masquerade as a fresh run).
	Resume bool
	// CheckpointReadOnly keeps in-memory recovery points and Resume working
	// but never writes CheckpointPath. A fleet worker that is not rank 0
	// runs with this set: every rank must agree on the resume point, so
	// exactly one process may own the file.
	CheckpointReadOnly bool
}

// enabled reports whether the policy asks for any resilience machinery.
func (p RecoveryPolicy) enabled() bool {
	return p.CheckpointEvery > 0 || p.Resume
}

// RunResilient is Run wrapped in a checkpoint/rollback recovery loop. Steps
// execute with panic containment: a step that fails — solver error escalated
// past its own restarts and fallbacks, or a panic out of a kernel (the comm
// layer's RankError, an injected chaos fault) — rolls the fields back to the
// last checkpoint and re-executes from the following step, backing off
// exponentially, until the step succeeds or MaxRetries consecutive failures
// exhaust the budget. Every failure is preserved in the final error chain;
// Result.Recoveries counts the rollbacks taken.
func RunResilient(cfg config.Config, k Kernels, s Solver, log io.Writer, pol RecoveryPolicy) (Result, error) {
	return RunResilientCtx(context.Background(), cfg, k, s, log, pol)
}

// RunResilientCtx is RunResilient bounded by a context. Cancellation and
// deadline expiry are terminal, never retried: the run returns promptly
// with the partial Result accumulated so far and the cancellation cause,
// even when it strikes mid-recovery.
func RunResilientCtx(ctx context.Context, cfg config.Config, k Kernels, s Solver, log io.Writer, pol RecoveryPolicy) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !pol.enabled() {
		return RunCtx(ctx, cfg, k, s, log)
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

	// The recovery point carries (step, time, energy0, u): density is
	// constant after Generate and every other field is recomputed inside the
	// step, so energy0 alone would cover rollback — u rides along so a
	// resumed run that has nothing left to march can still report the QA
	// summary (temperature integrates u) of the restored state. Capture and
	// restore drive port kernels themselves, so they run panic-contained
	// too — a fault landing inside FetchField must surface as an error, not
	// unwind through the run loop.
	capture := func(step int, simTime float64) (ck *checkpoint.Checkpoint, err error) {
		defer containPanic(&err)
		ck = &checkpoint.Checkpoint{
			Step: step, Time: simTime, NX: cfg.NX, NY: cfg.NY,
			Fields: []checkpoint.FieldData{
				{ID: int(FieldEnergy0), Data: k.FetchField(FieldEnergy0)},
				{ID: int(FieldU), Data: k.FetchField(FieldU)},
			},
		}
		if pol.CheckpointPath != "" && !pol.CheckpointReadOnly {
			// Rotate rather than overwrite: a checkpoint later found corrupt
			// on disk still leaves the previous generation to resume from.
			if err := ck.SaveRotate(pol.CheckpointPath); err != nil {
				return nil, err
			}
		}
		return ck, nil
	}
	restore := func(ck *checkpoint.Checkpoint) (err error) {
		defer containPanic(&err)
		for _, f := range ck.Fields {
			if len(f.Data) != cfg.NX*cfg.NY {
				return fmt.Errorf("driver: checkpoint field %d is %d cells, mesh wants %d",
					f.ID, len(f.Data), cfg.NX*cfg.NY)
			}
			k.RestoreField(FieldID(f.ID), f.Data)
		}
		k.HaloExchange([]FieldID{FieldDensity, FieldEnergy0}, 2)
		return nil
	}

	dt := cfg.InitialTimestep
	rx := dt / (m.Dx * m.Dx)
	ry := dt / (m.Dy * m.Dy)
	startStep := 1
	simTime := 0.0

	if pol.Resume && pol.CheckpointPath != "" {
		// LoadLatest falls back to the rotated previous generation when the
		// primary file is truncated or fails its CRC, so a checkpoint
		// corrupted at rest costs the run one checkpoint interval, not the
		// whole history. Only when no generation validates does resume fail.
		switch ck, from, err := checkpoint.LoadLatest(pol.CheckpointPath); {
		case err == nil:
			if ck.NX != cfg.NX || ck.NY != cfg.NY {
				return Result{}, fmt.Errorf("driver: resume checkpoint is %dx%d, configuration wants %dx%d",
					ck.NX, ck.NY, cfg.NX, cfg.NY)
			}
			if err := restore(ck); err != nil {
				return Result{}, err
			}
			startStep = ck.Step + 1
			simTime = ck.Time
			if log != nil {
				fmt.Fprintf(log, "resume: restored checkpoint at step %d, time %g\n", ck.Step, ck.Time)
				if from != pol.CheckpointPath {
					fmt.Fprintf(log, "resume: primary checkpoint invalid, fell back to %s\n", from)
				}
			}
		case errors.Is(err, os.ErrNotExist):
			// Cold start; the file appears once the first checkpoint saves.
		default:
			return Result{}, fmt.Errorf("driver: resume: %w", err)
		}
	}

	last, err := capture(startStep-1, simTime)
	if err != nil {
		return Result{}, fmt.Errorf("driver: initial checkpoint: %w", err)
	}

	observe := stepObserverFrom(ctx)
	var (
		res        Result
		failures   []error // every failure seen, for the final chain
		retries    int     // consecutive failures since the last completed step
		pendingSDC int     // SDC-classified failures awaiting a successful replay
	)
	for step := startStep; step <= cfg.EndStep && simTime < cfg.EndTime; step++ {
		if cErr := Cause(ctx); cErr != nil {
			return res, fmt.Errorf("driver: run cancelled before step %d: %w", step, cErr)
		}
		lastStep := step == cfg.EndStep || simTime+dt >= cfg.EndTime
		summaryDue := lastStep ||
			(cfg.SummaryFrequency > 0 && step%cfg.SummaryFrequency == 0)

		stats, totals, stepErr := attemptStep(ctx, cfg, k, s, rx, ry, summaryDue)
		var ck *checkpoint.Checkpoint
		if stepErr == nil && pol.CheckpointEvery > 0 &&
			(step%pol.CheckpointEvery == 0 || lastStep) {
			// Capturing the recovery point is part of the step attempt: a
			// fault landing in FetchField (or the file save) rolls back and
			// replays just like a fault inside the solve.
			ck, stepErr = capture(step, simTime+dt)
		}
		if stepErr != nil {
			// Cancellation is terminal, never a fault to retry: surface the
			// partial result with the cause, even mid-recovery.
			if cErr := Cause(ctx); cErr != nil {
				return res, fmt.Errorf("driver: step %d cancelled: %w", step, cErr)
			}
			if errors.Is(stepErr, ErrSDC) || errors.Is(stepErr, comm.ErrCorruption) {
				// Detected silent corruption: the escalation ladder below
				// (rollback to the last CRC-validated checkpoint, replay) is
				// the recovery; count the detection here and the recovery
				// when the replay of this step completes.
				res.SDCDetected++
				pendingSDC++
			}
			failures = append(failures, fmt.Errorf("step %d attempt %d: %w", step, retries+1, stepErr))
			retries++
			if log != nil {
				fmt.Fprintf(log, "recover: step %d failed (%v); rolling back to step %d (attempt %d/%d)\n",
					step, stepErr, last.Step, retries, pol.MaxRetries)
			}
			if retries > pol.MaxRetries {
				return res, fmt.Errorf("driver: step %d failed %d times, giving up: %w",
					step, retries, errors.Join(failures...))
			}
			if err := restore(last); err != nil {
				failures = append(failures, err)
				return res, errors.Join(failures...)
			}
			if pol.Backoff > 0 {
				// Full jitter: uniform in [0, base<<(retries-1)), so jobs
				// failed by one shared event don't all retry in lockstep.
				time.Sleep(BackoffDelay(pol.Backoff, retries))
			}
			res.Recoveries++
			// Discard the results of steps after the recovery point and
			// replay from there: simTime and the step counter rewind
			// together, so the recomputed trajectory is the one the
			// checkpoint froze.
			for len(res.Steps) > 0 && res.Steps[len(res.Steps)-1].Step > last.Step {
				sr := res.Steps[len(res.Steps)-1]
				res.TotalIterations -= sr.Stats.Iterations
				res.TotalInner -= sr.Stats.InnerIterations
				res.Steps = res.Steps[:len(res.Steps)-1]
			}
			simTime = last.Time
			step = last.Step // loop increment re-runs last.Step+1
			continue
		}
		retries = 0
		res.SDCRecovered += pendingSDC
		pendingSDC = 0
		simTime += dt

		sr := StepResult{Step: step, Time: simTime, Stats: stats}
		res.TotalIterations += stats.Iterations
		res.TotalInner += stats.InnerIterations
		if totals != nil {
			sr.Totals = totals
			res.Final = *totals
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
		if ck != nil {
			last = ck
		}
	}
	if len(res.Steps) == 0 {
		// The resume point was already at (or past) the end of the run:
		// nothing to march, but the caller still deserves the QA summary of
		// the restored state rather than a zero-valued Final.
		var t Totals
		serr := func() (err error) {
			defer containPanic(&err)
			t = k.FieldSummary()
			return nil
		}()
		if serr != nil {
			return res, serr
		}
		res.Final = t
	}
	return res, nil
}

// containPanic converts a panic into *err, preserving error payloads as a
// wrapped cause so errors.Is/As still see through.
func containPanic(err *error) {
	if p := recover(); p != nil {
		if e, ok := p.(error); ok {
			*err = fmt.Errorf("driver: panic during step: %w", e)
		} else {
			*err = fmt.Errorf("driver: panic during step: %v", p)
		}
	}
}

// attemptStep executes one full time step — including the field summary when
// one is due — with panic containment: any panic out of a kernel or the
// solver — a comm RankError, an injected fault — comes back as an error
// instead of unwinding through the caller, so every kernel call a step makes
// is inside the rollback/retry envelope.
func attemptStep(ctx context.Context, cfg config.Config, k Kernels, s Solver, rx, ry float64, summaryDue bool) (stats SolveStats, totals *Totals, err error) {
	defer containPanic(&err)
	k.SetField()
	k.HaloExchange([]FieldID{FieldDensity, FieldEnergy1}, 2)
	k.SolveInit(cfg.Coefficient, rx, ry, cfg.Preconditioner)
	stats, err = s.Solve(ctx, k)
	if err != nil {
		return stats, nil, err
	}
	k.SolveFinalise()
	k.ResetField()
	if summaryDue {
		t := k.FieldSummary()
		totals = &t
	}
	return stats, totals, nil
}
