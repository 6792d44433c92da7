// Package spmd runs a world of rank-local kernel sets in lockstep inside one
// process: the in-process form of every MPI-style version. A rank-local set
// is a driver.Kernels over one rank's chunk that owns its *comm.Rank and
// does its own collectives (mpi.RankKernels, opsport's rankState), so the
// same set runs one to an OS process in a fleet or N to a process here.
//
// A Runner is itself a driver.Kernels. Each driver call runs rank 0's set on
// the calling goroutine and hands the same call to ranks 1..N-1, which live
// on goroutines of their own: the caller publishes the call and bumps an
// epoch, the ranks wait for the bump and the caller waits for their
// countdown with the shared runtime's spin-then-park discipline
// (par.Parker), and rank 0's return value is the call's result — every set
// returns the same allreduced value. With one rank a call is a direct method
// call.
//
// Panic containment, the world's abort latch and Reset, and capability
// forwarding live here once for every port that runs its ranks in process.
package spmd

import (
	"sync/atomic"

	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// Runner drives one rank-local driver.Kernels per rank of a world. It is
// driven by one goroutine at a time, like the ports it implements.
type Runner struct {
	name  string
	world *comm.World
	ranks []*comm.Rank
	sets  []driver.Kernels

	// call is the current epoch's call, written before the epoch bump that
	// publishes it; nil tells the rank goroutines to exit. pending counts
	// the ranks 1..N-1 still running it.
	call    func(driver.Kernels)
	epoch   atomic.Uint64
	pending atomic.Int32
	join    *par.Parker   // the caller parks here
	waits   []*par.Parker // rank i > 0 parks on waits[i-1]
	closed  bool
}

var (
	_ driver.Kernels            = (*Runner)(nil)
	_ driver.CapabilityReporter = (*Runner)(nil)
	_ driver.FusedWDot          = (*Runner)(nil)
	_ driver.FusedURPrecond     = (*Runner)(nil)
	_ driver.FieldRestorer      = (*Runner)(nil)
	_ driver.TilingReporter     = (*Runner)(nil)
)

// New builds one rank-local set per rank of world with newSet, on the
// calling goroutine, and starts the goroutines of ranks 1..N-1. The runner
// owns the sets and the world from then on; if a set fails to build, the
// ones already built and the world are closed and the error returned.
func New(name string, world *comm.World, newSet func(r *comm.Rank) (driver.Kernels, error)) (*Runner, error) {
	r := &Runner{name: name, world: world, ranks: world.Ranks(), join: par.NewParker()}
	for _, rank := range r.ranks {
		k, err := newSet(rank)
		if err != nil {
			r.closeSets()
			return nil, err
		}
		r.sets = append(r.sets, k)
	}
	for id := 1; id < len(r.sets); id++ {
		p := par.NewParker()
		r.waits = append(r.waits, p)
		go r.rankLoop(id, p)
	}
	return r, nil
}

// rankLoop is rank id's goroutine: wait for an epoch, run its call, count
// down; a nil call is the exit.
func (r *Runner) rankLoop(id int, p *par.Parker) {
	var last uint64
	for {
		p.Wait(func() bool { return r.epoch.Load() != last })
		last = r.epoch.Load() // stable until this rank counts down
		fn := r.call
		if fn != nil {
			r.run(id, fn)
		}
		if r.pending.Add(-1) == 0 {
			r.join.Wake()
		}
		if fn == nil {
			return
		}
	}
}

// publish hands fn to ranks 1..N-1: arm the countdown, then bump the epoch
// and wake every parked rank — each must run its own share.
func (r *Runner) publish(fn func(driver.Kernels)) {
	r.call = fn
	r.pending.Store(int32(len(r.waits)))
	r.epoch.Add(1)
	for _, p := range r.waits {
		p.Wake()
	}
}

// run executes fn on rank id's set. A panic — a comm fault, a checksum
// escalation, a real bug — is recorded in the world's abort latch, which
// also wakes peers blocked in a receive or barrier, instead of unwinding
// the rank's goroutine or the caller.
func (r *Runner) run(id int, fn func(driver.Kernels)) {
	defer func() {
		if pv := recover(); pv != nil {
			re, ok := pv.(*comm.RankError)
			if !ok {
				re = &comm.RankError{Rank: id, Step: r.ranks[id].Ops(), Cause: pv}
			}
			r.world.Abort(re)
		}
	}()
	fn(r.sets[id])
}

// lead runs fn on rank 0 on the calling goroutine, waits for ranks 1..N-1
// to finish the published call, and re-panics the first rank failure as a
// *comm.RankError after re-arming the world, so the runner is reusable at
// once: the resilient run loop (driver.RunResilient) turns the panic into a
// step failure and rolls back.
func (r *Runner) lead(fn func(driver.Kernels)) {
	r.run(0, fn)
	if len(r.waits) > 0 {
		r.join.Wait(func() bool { return r.pending.Load() == 0 })
		r.call = nil
	}
	if err := r.world.Err(); err != nil {
		r.world.Reset()
		panic(err)
	}
}

// do runs fn on every rank.
func (r *Runner) do(fn func(driver.Kernels)) {
	if len(r.waits) > 0 {
		r.publish(fn)
	}
	r.lead(fn)
}

// value runs fn on every rank and returns rank 0's result.
func value[T any](r *Runner, fn func(driver.Kernels) T) (v T) {
	if len(r.waits) > 0 {
		r.publish(func(k driver.Kernels) { fn(k) })
	}
	r.lead(func(k driver.Kernels) { v = fn(k) })
	return v
}

// Name implements driver.Kernels.
func (r *Runner) Name() string { return r.name }

// World exposes the communication world so callers can install a fault
// injector, payload checksums or a collective deadline
// (comm.World.SetFaultInjector / SetChecksums / SetCollectiveTimeout)
// before driving the runner.
func (r *Runner) World() *comm.World { return r.world }

// Generate implements driver.Kernels: every rank derives the same global
// decomposition and initialises its own chunk.
func (r *Runner) Generate(m *grid.Mesh, states []config.State) error {
	return value(r, func(k driver.Kernels) error { return k.Generate(m, states) })
}

// SetField implements driver.Kernels.
func (r *Runner) SetField() { r.do(driver.Kernels.SetField) }

// ResetField implements driver.Kernels.
func (r *Runner) ResetField() { r.do(driver.Kernels.ResetField) }

// FieldSummary implements driver.Kernels.
func (r *Runner) FieldSummary() driver.Totals { return value(r, driver.Kernels.FieldSummary) }

// HaloExchange implements driver.Kernels.
func (r *Runner) HaloExchange(fields []driver.FieldID, depth int) {
	r.do(func(k driver.Kernels) { k.HaloExchange(fields, depth) })
}

// SolveInit implements driver.Kernels.
func (r *Runner) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	r.do(func(k driver.Kernels) { k.SolveInit(coef, rx, ry, precond) })
}

// SolveFinalise implements driver.Kernels.
func (r *Runner) SolveFinalise() { r.do(driver.Kernels.SolveFinalise) }

// CalcResidual implements driver.Kernels.
func (r *Runner) CalcResidual() { r.do(driver.Kernels.CalcResidual) }

// Norm2R implements driver.Kernels.
func (r *Runner) Norm2R() float64 { return value(r, driver.Kernels.Norm2R) }

// DotRZ implements driver.Kernels.
func (r *Runner) DotRZ() float64 { return value(r, driver.Kernels.DotRZ) }

// ApplyPrecond implements driver.Kernels.
func (r *Runner) ApplyPrecond() { r.do(driver.Kernels.ApplyPrecond) }

// CGInitP implements driver.Kernels.
func (r *Runner) CGInitP(precond bool) float64 {
	return value(r, func(k driver.Kernels) float64 { return k.CGInitP(precond) })
}

// CGCalcW implements driver.Kernels.
func (r *Runner) CGCalcW() float64 { return value(r, driver.Kernels.CGCalcW) }

// CGCalcUR implements driver.Kernels.
func (r *Runner) CGCalcUR(alpha float64, precond bool) float64 {
	return value(r, func(k driver.Kernels) float64 { return k.CGCalcUR(alpha, precond) })
}

// CGCalcP implements driver.Kernels.
func (r *Runner) CGCalcP(beta float64, precond bool) {
	r.do(func(k driver.Kernels) { k.CGCalcP(beta, precond) })
}

// JacobiCopyU implements driver.Kernels.
func (r *Runner) JacobiCopyU() { r.do(driver.Kernels.JacobiCopyU) }

// JacobiIterate implements driver.Kernels.
func (r *Runner) JacobiIterate() float64 { return value(r, driver.Kernels.JacobiIterate) }

// ChebyInit implements driver.Kernels.
func (r *Runner) ChebyInit(theta float64, precond bool) {
	r.do(func(k driver.Kernels) { k.ChebyInit(theta, precond) })
}

// ChebyIterate implements driver.Kernels.
func (r *Runner) ChebyIterate(alpha, beta float64, precond bool) {
	r.do(func(k driver.Kernels) { k.ChebyIterate(alpha, beta, precond) })
}

// PPCGInitInner implements driver.Kernels.
func (r *Runner) PPCGInitInner(theta float64) {
	r.do(func(k driver.Kernels) { k.PPCGInitInner(theta) })
}

// PPCGInnerIterate implements driver.Kernels.
func (r *Runner) PPCGInnerIterate(alpha, beta float64) {
	r.do(func(k driver.Kernels) { k.PPCGInnerIterate(alpha, beta) })
}

// PPCGFinishInner implements driver.Kernels.
func (r *Runner) PPCGFinishInner() { r.do(driver.Kernels.PPCGFinishInner) }

// FetchField implements driver.Kernels: the sets gather their chunks onto
// rank 0, whose assembled global field is the result.
func (r *Runner) FetchField(id driver.FieldID) []float64 {
	return value(r, func(k driver.Kernels) []float64 { return k.FetchField(id) })
}

// --- capabilities, forwarded from the rank-local sets ------------------------

// CGCalcWFused implements driver.FusedWDot.
func (r *Runner) CGCalcWFused() float64 {
	return value(r, func(k driver.Kernels) float64 { return k.(driver.FusedWDot).CGCalcWFused() })
}

// CGCalcURFused implements driver.FusedURPrecond.
func (r *Runner) CGCalcURFused(alpha float64, precond bool) float64 {
	return value(r, func(k driver.Kernels) float64 {
		return k.(driver.FusedURPrecond).CGCalcURFused(alpha, precond)
	})
}

// RestoreField implements driver.FieldRestorer: every rank copies its own
// chunk window out of the shared global slab.
func (r *Runner) RestoreField(id driver.FieldID, data []float64) {
	r.do(func(k driver.Kernels) { k.(driver.FieldRestorer).RestoreField(id, data) })
}

// HasFusedWDot implements driver.CapabilityReporter.
func (r *Runner) HasFusedWDot() bool { return driver.AsFusedWDot(r.sets[0]) != nil }

// HasFusedURPrecond implements driver.CapabilityReporter.
func (r *Runner) HasFusedURPrecond() bool { return driver.AsFusedURPrecond(r.sets[0]) != nil }

// HasFieldRestorer implements driver.CapabilityReporter.
func (r *Runner) HasFieldRestorer() bool { return driver.AsFieldRestorer(r.sets[0]) != nil }

// HasTilingReporter reports whether the sets expose tiling statistics;
// driver.AsTilingReporter consults it.
func (r *Runner) HasTilingReporter() bool { return driver.AsTilingReporter(r.sets[0]) != nil }

// TilingSnapshot implements driver.TilingReporter: the ranks' counters
// summed, with rank 0's tile geometry (ranks share one topology, so an
// automatic tile shape resolves identically everywhere). It reads every set
// on the calling goroutine without a dispatch: between calls ranks 1..N-1
// are idle, and the last join ordered their writes before these reads.
func (r *Runner) TilingSnapshot() driver.TilingSnapshot {
	s := driver.AsTilingReporter(r.sets[0]).TilingSnapshot()
	for _, k := range r.sets[1:] {
		s.Add(driver.AsTilingReporter(k).TilingSnapshot())
	}
	return s
}

// Close implements driver.Kernels: stop the rank goroutines, then close
// every set and the world's transport (a no-op in process; a loopback socket
// world closes its listeners and connections). Idempotent.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if len(r.waits) > 0 {
		r.publish(nil)
		r.join.Wait(func() bool { return r.pending.Load() == 0 })
	}
	r.closeSets()
}

func (r *Runner) closeSets() {
	for _, k := range r.sets {
		k.Close()
	}
	r.world.Close()
}
