// Package mpi is the distributed-memory TeaLeaf port, the analogue of the
// mini-app's reference MPI (and hybrid MPI+OpenMP) build: the mesh is
// decomposed into one chunk per rank, ranks run SPMD on the message-passing
// runtime (internal/comm), halos are exchanged with eager sends, and
// reductions are MPI-style allreduces. Each rank may additionally
// parallelise its kernels over a thread team, giving the paper's
// "OpenMP and MPI" version.
package mpi

import (
	"fmt"
	"sync"

	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// Port drives a world of ranks from the single-threaded driver: every
// kernel call broadcasts a command all ranks execute SPMD. Rank goroutines
// persist for the port's lifetime, like MPI processes.
type Port struct {
	name    string
	nranks  int
	threads int

	world *comm.World
	cmds  []chan func(*rankState)
	calls sync.WaitGroup // outstanding rank executions of the current call

	resF chan float64
	resT chan driver.Totals
	resE chan error

	runDone chan struct{}
	closed  bool
}

var _ driver.Kernels = (*Port)(nil)

// New creates the port with the given rank count and threads per rank.
// threads <= 1 is the pure-MPI build; threads > 1 the hybrid build.
func New(ranks, threads int) *Port {
	if ranks <= 0 {
		panic(fmt.Sprintf("mpi: rank count must be positive, got %d", ranks))
	}
	name := "manual-mpi"
	if threads > 1 {
		name = "manual-mpi-omp"
	}
	return newWithWorld(name, comm.NewWorld(ranks), ranks, threads)
}

// NewSocket creates the port on a loopback socket world: the same rank
// goroutines and kernels as New, but every send, reduction and broadcast
// crosses the length-prefixed checksummed wire protocol instead of an
// in-process mailbox. It exists to prove transport transparency — the
// conformance suite runs every deck over it and must get bitwise-identical
// physics — and to exercise the wire path under the chaos harness without
// spawning processes.
func NewSocket(ranks, threads int, opt comm.SocketOptions) (*Port, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mpi: rank count must be positive, got %d", ranks)
	}
	w, err := comm.NewSocketWorld(ranks, opt)
	if err != nil {
		return nil, err
	}
	name := "manual-mpi-socket"
	if threads > 1 {
		name = "manual-mpi-omp-socket"
	}
	return newWithWorld(name, w, ranks, threads), nil
}

func newWithWorld(name string, world *comm.World, ranks, threads int) *Port {
	if threads < 1 {
		threads = 1
	}
	p := &Port{
		name:    name,
		nranks:  ranks,
		threads: threads,
		world:   world,
		cmds:    make([]chan func(*rankState), ranks),
		resF:    make(chan float64, 1),
		resT:    make(chan driver.Totals, 1),
		resE:    make(chan error, 1),
		runDone: make(chan struct{}),
	}
	for i := range p.cmds {
		p.cmds[i] = make(chan func(*rankState), 1)
	}
	go func() {
		p.world.Run(func(r *comm.Rank) {
			rs := &rankState{rank: r}
			if threads > 1 {
				rs.team = par.NewTeam(threads)
				defer rs.team.Close()
			}
			for fn := range p.cmds[r.ID()] {
				fn(rs)
			}
		})
		close(p.runDone)
	}()
	return p
}

// Name implements driver.Kernels.
func (p *Port) Name() string { return p.name }

// Ranks returns the world size, for reporting.
func (p *Port) Ranks() int { return p.nranks }

// Threads returns the per-rank team width, for reporting.
func (p *Port) Threads() int { return p.threads }

// World exposes the port's communication world so callers can install a
// fault injector or a collective deadline (comm.World.SetFaultInjector /
// SetCollectiveTimeout) before driving the port.
func (p *Port) World() *comm.World { return p.world }

// do runs fn on every rank and waits for all of them to finish.
//
// Each rank execution is panic-contained: a failing rank (a comm-layer
// fault, an invalid-rank send, a real bug) records the first failure in the
// world's abort latch — which also unblocks peers stuck in a receive or
// barrier — while the deferred Done keeps the call group balanced, so the
// rank goroutines stay alive for a later retry instead of dying with a
// half-finished WaitGroup. After all ranks return, a recorded failure is
// re-panicked as a structured *comm.RankError on the driver goroutine; the
// resilient run loop (driver.RunResilient) converts it into a step failure
// and rolls back, after do has drained stale results and Reset the world so
// the port is immediately reusable.
func (p *Port) do(fn func(rs *rankState)) {
	p.calls.Add(p.nranks)
	for _, ch := range p.cmds {
		ch <- func(rs *rankState) {
			defer p.calls.Done()
			defer func() {
				if pv := recover(); pv != nil {
					if re, ok := pv.(*comm.RankError); ok {
						p.world.Abort(re)
						return
					}
					p.world.Abort(&comm.RankError{Rank: rs.rank.ID(), Step: rs.rank.Ops(), Cause: pv})
				}
			}()
			fn(rs)
		}
	}
	p.calls.Wait()
	if err := p.world.Err(); err != nil {
		// Throw away any result a rank managed to post before the failure
		// and re-arm the world so the next command starts clean.
		select {
		case <-p.resF:
		default:
		}
		select {
		case <-p.resT:
		default:
		}
		select {
		case <-p.resE:
		default:
		}
		p.world.Reset()
		panic(err)
	}
}

// doReduce runs fn on every rank, allreduces the per-rank partials and
// returns the global sum (identical on every rank; rank 0 reports it).
func (p *Port) doReduce(fn func(rs *rankState) float64) float64 {
	p.do(func(rs *rankState) {
		global := rs.rank.AllreduceSum(fn(rs))
		if rs.rank.ID() == 0 {
			p.resF <- global
		}
	})
	return <-p.resF
}

// Generate implements driver.Kernels: decompose the mesh, then generate
// each rank's chunk from its physically-offset sub-mesh.
func (p *Port) Generate(m *grid.Mesh, states []config.State) error {
	cart := comm.Decompose(p.nranks, m.Nx, m.Ny)
	p.do(func(rs *rankState) {
		ch := cart.ChunkOf(rs.rank.ID(), m.Nx, m.Ny)
		err := rs.init(m, ch, states)
		if rs.rank.ID() == 0 {
			p.resE <- err
		}
	})
	return <-p.resE
}

// SetField implements driver.Kernels.
func (p *Port) SetField() { p.do((*rankState).SetField) }

// ResetField implements driver.Kernels.
func (p *Port) ResetField() { p.do((*rankState).ResetField) }

// FieldSummary implements driver.Kernels.
func (p *Port) FieldSummary() driver.Totals {
	p.do(func(rs *rankState) {
		local := rs.FieldSummary()
		rs.sumBuf = [4]float64{local.Volume, local.Mass, local.InternalEnergy, local.Temperature}
		rs.rank.AllreduceVecInPlace(rs.sumBuf[:])
		if rs.rank.ID() == 0 {
			p.resT <- driver.Totals{
				Volume:         rs.sumBuf[0],
				Mass:           rs.sumBuf[1],
				InternalEnergy: rs.sumBuf[2],
				Temperature:    rs.sumBuf[3],
			}
		}
	})
	return <-p.resT
}

// HaloExchange implements driver.Kernels.
func (p *Port) HaloExchange(fields []driver.FieldID, depth int) {
	p.do(func(rs *rankState) { rs.HaloExchange(fields, depth) })
}

// SolveInit implements driver.Kernels.
func (p *Port) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	p.do(func(rs *rankState) { rs.SolveInit(coef, rx, ry, precond) })
}

// SolveFinalise implements driver.Kernels.
func (p *Port) SolveFinalise() { p.do((*rankState).SolveFinalise) }

// CalcResidual implements driver.Kernels.
func (p *Port) CalcResidual() { p.do((*rankState).CalcResidual) }

// Norm2R implements driver.Kernels.
func (p *Port) Norm2R() float64 { return p.doReduce((*rankState).Norm2R) }

// DotRZ implements driver.Kernels.
func (p *Port) DotRZ() float64 { return p.doReduce((*rankState).DotRZ) }

// ApplyPrecond implements driver.Kernels.
func (p *Port) ApplyPrecond() { p.do((*rankState).ApplyPrecond) }

// CGInitP implements driver.Kernels.
func (p *Port) CGInitP(precond bool) float64 {
	return p.doReduce(func(rs *rankState) float64 { return rs.CGInitP(precond) })
}

// CGCalcW implements driver.Kernels.
func (p *Port) CGCalcW() float64 {
	return p.doReduce((*rankState).CGCalcW)
}

// CGCalcUR implements driver.Kernels.
func (p *Port) CGCalcUR(alpha float64, precond bool) float64 {
	return p.doReduce(func(rs *rankState) float64 { return rs.CGCalcUR(alpha, precond) })
}

// CGCalcWFused implements driver.FusedWDot.
func (p *Port) CGCalcWFused() float64 {
	return p.doReduce((*rankState).CGCalcWFused)
}

// CGCalcURFused implements driver.FusedURPrecond.
func (p *Port) CGCalcURFused(alpha float64, precond bool) float64 {
	return p.doReduce(func(rs *rankState) float64 { return rs.CGCalcURFused(alpha, precond) })
}

// CGCalcP implements driver.Kernels.
func (p *Port) CGCalcP(beta float64, precond bool) {
	p.do(func(rs *rankState) { rs.CGCalcP(beta, precond) })
}

// JacobiCopyU implements driver.Kernels.
func (p *Port) JacobiCopyU() { p.do((*rankState).JacobiCopyU) }

// JacobiIterate implements driver.Kernels.
func (p *Port) JacobiIterate() float64 { return p.doReduce((*rankState).JacobiIterate) }

// ChebyInit implements driver.Kernels.
func (p *Port) ChebyInit(theta float64, precond bool) {
	p.do(func(rs *rankState) { rs.ChebyInit(theta, precond) })
}

// ChebyIterate implements driver.Kernels.
func (p *Port) ChebyIterate(alpha, beta float64, precond bool) {
	p.do(func(rs *rankState) { rs.ChebyIterate(alpha, beta, precond) })
}

// PPCGInitInner implements driver.Kernels.
func (p *Port) PPCGInitInner(theta float64) {
	p.do(func(rs *rankState) { rs.PPCGInitInner(theta) })
}

// PPCGInnerIterate implements driver.Kernels.
func (p *Port) PPCGInnerIterate(alpha, beta float64) {
	p.do(func(rs *rankState) { rs.PPCGInnerIterate(alpha, beta) })
}

// PPCGFinishInner implements driver.Kernels.
func (p *Port) PPCGFinishInner() { p.do((*rankState).PPCGFinishInner) }

// FetchField implements driver.Kernels: gather the chunks onto rank 0 and
// return the assembled global field.
func (p *Port) FetchField(id driver.FieldID) []float64 {
	res := make(chan []float64, 1)
	p.do(func(rs *rankState) {
		if out := rs.fetchField(id); out != nil {
			res <- out
		}
	})
	return <-res
}

// RestoreField implements driver.FieldRestorer: every rank scatters its own
// chunk window out of the shared global slab.
func (p *Port) RestoreField(id driver.FieldID, data []float64) {
	p.do(func(rs *rankState) { rs.restoreField(id, data) })
}

// Close implements driver.Kernels: shut down the rank goroutines, then the
// transport (a no-op in-process; for socket worlds it closes listeners and
// connections and removes the socket directory).
func (p *Port) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.cmds {
		close(ch)
	}
	<-p.runDone
	p.world.Close()
}
