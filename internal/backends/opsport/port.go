// Package opsport is TeaLeaf re-engineered on the OPS embedded DSL
// (internal/ops), the analogue of the paper's OPS builds. Every kernel is
// written exactly once, as an ops.ParLoopRow: access descriptors around the
// internal/kern row body every other version shares. The variant matrix —
// OpenMP, MPI, OpenMP+MPI, MPI Tiled, CUDA, OpenACC — comes entirely from
// library configuration, which is the productivity claim the paper evaluates.
//
// Distributed variants run one OPS context per rank SPMD on the
// message-passing runtime; halo exchanges move dat strips between ranks
// and apply the reflective physical boundary as ParLoops, so even the
// boundary code is backend-portable.
package opsport

import (
	"fmt"
	"sync"

	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// Options selects an OPS TeaLeaf variant.
type Options struct {
	// Backend is the per-rank OPS backend.
	Backend ops.Backend
	// Ranks is the number of distributed chunks (1 = single chunk).
	Ranks int
	// Threads per rank for the OpenMP/ACC backends.
	Threads int
	// Tiling enables the lazy cache-block tiling pass per rank.
	Tiling       bool
	TileX, TileY int
	// TileAuto derives TileX/TileY from the detected cache topology and the
	// first chain's working set (explicit TileX/TileY win).
	TileAuto bool
	// Block is the CUDA kernel block size (paper: 64x8).
	Block simgpu.Dim2
	// Name overrides the reported variant name.
	Name string
}

func (o Options) variantName() string {
	if o.Name != "" {
		return o.Name
	}
	switch {
	case o.Ranks > 1 && o.Tiling:
		return "ops-mpi-tiled"
	case o.Ranks > 1 && o.Backend == ops.BackendOpenMP:
		return "ops-mpi-omp"
	case o.Ranks > 1:
		return "ops-mpi"
	case o.Backend == ops.BackendCUDA:
		return "ops-cuda"
	case o.Backend == ops.BackendACC:
		return "ops-openacc"
	case o.Tiling:
		return "ops-tiled"
	default:
		return "ops-openmp"
	}
}

// Port drives the OPS variant through the driver.Kernels contract.
type Port struct {
	name   string
	opt    Options
	nranks int

	world *comm.World
	cmds  []chan func(*rankState)
	calls sync.WaitGroup

	resF chan float64
	resT chan driver.Totals
	resE chan error

	runDone chan struct{}
	closed  bool
}

var _ driver.Kernels = (*Port)(nil)

// New creates the OPS TeaLeaf variant described by opt.
func New(opt Options) (*Port, error) {
	if opt.Ranks <= 0 {
		opt.Ranks = 1
	}
	if opt.Ranks > 1 && opt.Backend == ops.BackendCUDA {
		return nil, fmt.Errorf("opsport: the CUDA backend runs single-chunk (no MPI+CUDA variant in the study)")
	}
	p := &Port{
		name:    opt.variantName(),
		opt:     opt,
		nranks:  opt.Ranks,
		world:   comm.NewWorld(opt.Ranks),
		cmds:    make([]chan func(*rankState), opt.Ranks),
		resF:    make(chan float64, 1),
		resT:    make(chan driver.Totals, 1),
		resE:    make(chan error, 1),
		runDone: make(chan struct{}),
	}
	for i := range p.cmds {
		p.cmds[i] = make(chan func(*rankState), 1)
	}
	ctxErr := make(chan error, opt.Ranks)
	go func() {
		p.world.Run(func(r *comm.Rank) {
			ctx, err := ops.NewContext(ops.Options{
				Backend:  opt.Backend,
				Threads:  opt.Threads,
				Block:    opt.Block,
				Tiling:   opt.Tiling,
				TileX:    opt.TileX,
				TileY:    opt.TileY,
				TileAuto: opt.TileAuto,
			})
			ctxErr <- err
			if err != nil {
				return
			}
			defer ctx.Close()
			rs := &rankState{port: p, rank: r, ctx: ctx}
			for fn := range p.cmds[r.ID()] {
				fn(rs)
			}
		})
		close(p.runDone)
	}()
	for i := 0; i < opt.Ranks; i++ {
		if err := <-ctxErr; err != nil {
			p.closeChannels()
			return nil, err
		}
	}
	return p, nil
}

// World exposes the port's communication world so callers can install a
// fault injector, enable payload checksums, or set a collective deadline
// (comm.World.SetFaultInjector / SetChecksums / SetCollectiveTimeout).
func (p *Port) World() *comm.World { return p.world }

func (p *Port) closeChannels() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.cmds {
		close(ch)
	}
	<-p.runDone
}

// Name implements driver.Kernels.
func (p *Port) Name() string { return p.name }

// Stats aggregates the per-rank OPS execution counters.
func (p *Port) Stats() ops.Stats {
	agg := make(chan ops.Stats, p.nranks)
	p.do(func(rs *rankState) { agg <- rs.ctx.Stats() })
	close(agg)
	var total ops.Stats
	for s := range agg {
		total.Add(s)
	}
	return total
}

// TilingSnapshot implements driver.TilingReporter: the aggregated counters
// plus the resolved tile geometry (rank 0's — ranks share one topology, so
// TileAuto resolves identically everywhere).
func (p *Port) TilingSnapshot() driver.TilingSnapshot {
	shape := make(chan [2]int, p.nranks)
	p.do(func(rs *rankState) {
		if rs.rank.ID() == 0 {
			tx, ty := rs.ctx.TileShape()
			shape <- [2]int{tx, ty}
		}
	})
	s := p.Stats()
	g := <-shape
	return driver.TilingSnapshot{
		Tiling: p.opt.Tiling,
		TileX:  g[0], TileY: g[1],
		LoopsEnqueued: s.LoopsEnqueued,
		LoopsExecuted: s.LoopsExecuted,
		Flushes:       s.Flushes,
		Tiles:         s.Tiles,
		Chains:        s.Chains,
		ChainedLoops:  s.ChainedLoops,
		MaxChainLen:   s.MaxChainLen,
		Discards:      s.Discards,
	}
}

// do runs fn on every rank and waits for all of them to finish.
//
// Each rank execution is panic-contained exactly like the manual MPI
// port's: a failing rank (a comm-layer fault, a checksum escalation, a
// real bug) records the first failure in the world's abort latch — which
// also unblocks peers stuck in a receive or barrier — while the deferred
// Done keeps the call group balanced, so the long-lived rank goroutines
// stay alive for a later retry instead of dying mid-loop and hanging every
// subsequent command. After all ranks return, a recorded failure is
// re-panicked as a structured *comm.RankError on the driver goroutine; the
// resilient run loop converts it into a step failure and rolls back, after
// do has drained stale results and Reset the world so the port is
// immediately reusable.
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

func (p *Port) doReduce(fn func(rs *rankState) float64) float64 {
	p.do(func(rs *rankState) {
		global := rs.rank.AllreduceSum(fn(rs))
		if rs.rank.ID() == 0 {
			p.resF <- global
		}
	})
	return <-p.resF
}

// Generate implements driver.Kernels.
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
func (p *Port) SetField() { p.do((*rankState).setField) }

// ResetField implements driver.Kernels.
func (p *Port) ResetField() { p.do((*rankState).resetField) }

// FieldSummary implements driver.Kernels.
func (p *Port) FieldSummary() driver.Totals {
	p.do(func(rs *rankState) {
		local := rs.fieldSummary()
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
	p.do(func(rs *rankState) { rs.haloExchange(fields, depth) })
}

// SolveInit implements driver.Kernels.
func (p *Port) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	p.do(func(rs *rankState) { rs.solveInit(coef, rx, ry, precond) })
}

// SolveFinalise implements driver.Kernels.
func (p *Port) SolveFinalise() { p.do((*rankState).solveFinalise) }

// CalcResidual implements driver.Kernels.
func (p *Port) CalcResidual() { p.do((*rankState).calcResidual) }

// Norm2R implements driver.Kernels.
func (p *Port) Norm2R() float64 { return p.doReduce((*rankState).norm2R) }

// DotRZ implements driver.Kernels.
func (p *Port) DotRZ() float64 { return p.doReduce((*rankState).dotRZ) }

// ApplyPrecond implements driver.Kernels.
func (p *Port) ApplyPrecond() { p.do((*rankState).applyPrecond) }

// CGInitP implements driver.Kernels.
func (p *Port) CGInitP(precond bool) float64 {
	return p.doReduce(func(rs *rankState) float64 { return rs.cgInitP(precond) })
}

// CGCalcW implements driver.Kernels.
func (p *Port) CGCalcW() float64 { return p.doReduce((*rankState).cgCalcW) }

// CGCalcUR implements driver.Kernels.
func (p *Port) CGCalcUR(alpha float64, precond bool) float64 {
	return p.doReduce(func(rs *rankState) float64 { return rs.cgCalcUR(alpha, precond) })
}

// CGCalcWFused implements driver.FusedWDot.
func (p *Port) CGCalcWFused() float64 { return p.doReduce((*rankState).cgCalcWFused) }

// CGCalcURFused implements driver.FusedURPrecond.
func (p *Port) CGCalcURFused(alpha float64, precond bool) float64 {
	return p.doReduce(func(rs *rankState) float64 { return rs.cgCalcURFused(alpha, precond) })
}

// CGCalcP implements driver.Kernels.
func (p *Port) CGCalcP(beta float64, precond bool) {
	p.do(func(rs *rankState) { rs.cgCalcP(beta, precond) })
}

// JacobiCopyU implements driver.Kernels.
func (p *Port) JacobiCopyU() { p.do((*rankState).jacobiCopyU) }

// JacobiIterate implements driver.Kernels.
func (p *Port) JacobiIterate() float64 { return p.doReduce((*rankState).jacobiIterate) }

// ChebyInit implements driver.Kernels.
func (p *Port) ChebyInit(theta float64, precond bool) {
	p.do(func(rs *rankState) { rs.chebyInit(theta, precond) })
}

// ChebyIterate implements driver.Kernels.
func (p *Port) ChebyIterate(alpha, beta float64, precond bool) {
	p.do(func(rs *rankState) { rs.chebyIterate(alpha, beta, precond) })
}

// PPCGInitInner implements driver.Kernels.
func (p *Port) PPCGInitInner(theta float64) {
	p.do(func(rs *rankState) { rs.ppcgInitInner(theta) })
}

// PPCGInnerIterate implements driver.Kernels.
func (p *Port) PPCGInnerIterate(alpha, beta float64) {
	p.do(func(rs *rankState) { rs.ppcgInnerIterate(alpha, beta) })
}

// PPCGFinishInner implements driver.Kernels.
func (p *Port) PPCGFinishInner() { p.do((*rankState).ppcgFinishInner) }

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

// Close implements driver.Kernels.
func (p *Port) Close() { p.closeChannels() }
