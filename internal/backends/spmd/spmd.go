// Package spmd runs a world of rank-local kernel sets in lockstep inside one
// process: the in-process form of every MPI-style version. A rank-local set
// is a driver.Kernels over one rank's chunk that owns its *comm.Rank and
// does its own collectives (the rank layer chunk.Rank, under
// mpi.RankKernels and opsport's rankState), so the same set runs one to an
// OS process in a fleet or N to a process here.
//
// A Runner is itself a driver.Kernels, a driver.Forwarder whose intercept
// runs each call on rank 0's set on the calling goroutine and hands a copy
// of the driver.Call to ranks 1..N-1, which live on goroutines of their
// own: the caller publishes the copies and bumps an epoch, the ranks wait
// for the bump and the caller for their countdown with the shared runtime's
// spin-then-park discipline (par.Parker), and rank 0's result is the call's
// — every set returns the same allreduced value. No call allocates.
//
// Panic containment, the world's abort latch and Reset, and the rank sum of
// tiling statistics live here once for every port that runs its ranks in
// process.
package spmd

import (
	"sync/atomic"

	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// Runner drives one rank-local driver.Kernels per rank of a world. It is
// driven by one goroutine at a time, like the ports it implements.
type Runner struct {
	driver.Forwarder
	name  string
	world *comm.World
	ranks []*comm.Rank
	sets  []driver.Kernels

	// calls[i-1] is rank i's copy of the current epoch's call, written
	// before the epoch bump that publishes it; closed tells the rank
	// goroutines to exit instead. pending counts the ranks 1..N-1 still
	// running it.
	calls   []driver.Call
	closed  bool
	epoch   atomic.Uint64
	pending atomic.Int32
	join    *par.Parker   // the caller parks here
	waits   []*par.Parker // rank i > 0 parks on waits[i-1]
}

var (
	_ driver.Kernels        = (*Runner)(nil)
	_ driver.TilingReporter = (*Runner)(nil)
)

// New builds one rank-local set per rank of world with newSet, on the
// calling goroutine, and starts the goroutines of ranks 1..N-1. The runner
// owns the sets and the world from then on; if a set fails to build, the
// ones already built and the world are closed and the error returned.
func New(name string, world *comm.World, newSet func(r *comm.Rank) (driver.Kernels, error)) (*Runner, error) {
	r := &Runner{name: name, world: world, ranks: world.Ranks(), join: par.NewParker()}
	r.Forwarder = driver.Forward(r.intercept)
	for _, rank := range r.ranks {
		k, err := newSet(rank)
		if err != nil {
			r.closeSets()
			return nil, err
		}
		r.sets = append(r.sets, k)
	}
	r.calls = make([]driver.Call, len(r.sets)-1)
	for id := 1; id < len(r.sets); id++ {
		p := par.NewParker()
		r.waits = append(r.waits, p)
		go r.rankLoop(id, p)
	}
	return r, nil
}

// rankLoop is rank id's goroutine: wait for an epoch, run its copy of the
// call, count down; an epoch published by Close is the exit.
func (r *Runner) rankLoop(id int, p *par.Parker) {
	var last uint64
	for {
		p.Wait(func() bool { return r.epoch.Load() != last })
		last = r.epoch.Load() // stable until this rank counts down
		closed := r.closed
		if !closed {
			r.run(id, &r.calls[id-1])
		}
		if r.pending.Add(-1) == 0 {
			r.join.Wake()
		}
		if closed {
			return
		}
	}
}

// release arms the countdown, then bumps the epoch and wakes every parked
// rank — each must run its own share.
func (r *Runner) release() {
	r.pending.Store(int32(len(r.waits)))
	r.epoch.Add(1)
	for _, p := range r.waits {
		p.Wake()
	}
}

// run applies c to rank id's set. A panic — a comm fault, a checksum
// escalation, a real bug — is recorded in the world's abort latch, which
// also wakes peers blocked in a receive or barrier, instead of unwinding
// the rank's goroutine or the caller.
func (r *Runner) run(id int, c *driver.Call) {
	defer func() {
		if pv := recover(); pv != nil {
			re, ok := pv.(*comm.RankError)
			if !ok {
				re = &comm.RankError{Rank: id, Step: r.ranks[id].Ops(), Cause: pv}
			}
			r.world.Abort(re)
		}
	}()
	c.Apply(r.sets[id])
}

// intercept hands a copy of c to ranks 1..N-1, runs c on rank 0 on the
// calling goroutine, waits for the other ranks to finish, and re-panics the
// first rank failure as a *comm.RankError after re-arming the world, so the
// runner is reusable at once: the resilient run loop (driver.RunResilient)
// turns the panic into a step failure and rolls back.
func (r *Runner) intercept(c *driver.Call) {
	if len(r.waits) > 0 {
		for i := range r.calls {
			r.calls[i] = *c
		}
		r.release()
	}
	r.run(0, c)
	if len(r.waits) > 0 {
		r.join.Wait(func() bool { return r.pending.Load() == 0 })
	}
	if err := r.world.Err(); err != nil {
		r.world.Reset()
		panic(err)
	}
}

// Name implements driver.Kernels.
func (r *Runner) Name() string { return r.name }

// World exposes the communication world so callers can install a fault
// injector, payload checksums or a collective deadline
// (comm.World.SetFaultInjector / SetChecksums / SetCollectiveTimeout)
// before driving the runner.
func (r *Runner) World() *comm.World { return r.world }

// HasTilingReporter reports whether the sets expose tiling statistics: the
// runner's own check, which driver.AsTilingReporter consults.
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
		r.release()
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
