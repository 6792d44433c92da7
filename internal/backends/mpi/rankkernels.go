package mpi

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// tagFetchSlab carries the assembled global field from rank 0 back out to
// the other ranks in RankKernels.FetchField. It extends the tagFetchMeta/
// tagFetchData block in kernels.go.
const tagFetchSlab = 100002

// RankKernels is the SPMD counterpart of Port: a driver.Kernels that runs
// ONE rank's share of the mesh on one *comm.Rank, for worlds whose other
// ranks live in different OS processes (comm.JoinWorld). Where Port fans a
// kernel call out to every rank and collects the answer on the driver
// goroutine, RankKernels is called BY the rank itself — every process runs
// its own driver loop, and the loops stay in lockstep because every control
// decision (convergence, error norms, time) derives from allreduced scalars
// that are bitwise identical on all ranks.
//
// The kernel bodies are exactly the rankState (shared host chunk) methods
// Port uses, so a fleet of RankKernels processes computes bit-for-bit what an
// in-process Port world computes.
type RankKernels struct {
	rs rankState
}

var _ driver.Kernels = (*RankKernels)(nil)
var _ driver.FieldRestorer = (*RankKernels)(nil)
var _ driver.FusedWDot = (*RankKernels)(nil)
var _ driver.FusedURPrecond = (*RankKernels)(nil)

// NewRankKernels wraps the given rank. threads > 1 adds a per-process
// thread team (the hybrid build); Close releases it.
func NewRankKernels(r *comm.Rank, threads int) *RankKernels {
	k := &RankKernels{rs: rankState{rank: r}}
	if threads > 1 {
		k.rs.team = par.NewTeam(threads)
	}
	return k
}

// Name implements driver.Kernels.
func (k *RankKernels) Name() string {
	return fmt.Sprintf("manual-mpi-fleet[%d/%d]", k.rs.rank.ID(), k.rs.rank.Size())
}

// Generate implements driver.Kernels: every rank derives the same global
// decomposition and initialises its own chunk.
func (k *RankKernels) Generate(m *grid.Mesh, states []config.State) error {
	cart := comm.Decompose(k.rs.rank.Size(), m.Nx, m.Ny)
	ch := cart.ChunkOf(k.rs.rank.ID(), m.Nx, m.Ny)
	return k.rs.init(m, ch, states)
}

// SetField implements driver.Kernels.
func (k *RankKernels) SetField() { k.rs.SetField() }

// ResetField implements driver.Kernels.
func (k *RankKernels) ResetField() { k.rs.ResetField() }

// FieldSummary implements driver.Kernels. Unlike Port (which reports rank
// 0's copy), every rank returns the allreduced totals — they are bitwise
// identical, and each process's driver needs them for its own QA line.
func (k *RankKernels) FieldSummary() driver.Totals {
	local := k.rs.FieldSummary()
	k.rs.sumBuf = [4]float64{local.Volume, local.Mass, local.InternalEnergy, local.Temperature}
	k.rs.rank.AllreduceVecInPlace(k.rs.sumBuf[:])
	return driver.Totals{
		Volume:         k.rs.sumBuf[0],
		Mass:           k.rs.sumBuf[1],
		InternalEnergy: k.rs.sumBuf[2],
		Temperature:    k.rs.sumBuf[3],
	}
}

// HaloExchange implements driver.Kernels.
func (k *RankKernels) HaloExchange(fields []driver.FieldID, depth int) {
	k.rs.HaloExchange(fields, depth)
}

// SolveInit implements driver.Kernels.
func (k *RankKernels) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	k.rs.SolveInit(coef, rx, ry, precond)
}

// SolveFinalise implements driver.Kernels.
func (k *RankKernels) SolveFinalise() { k.rs.SolveFinalise() }

// CalcResidual implements driver.Kernels.
func (k *RankKernels) CalcResidual() { k.rs.CalcResidual() }

// Norm2R implements driver.Kernels.
func (k *RankKernels) Norm2R() float64 { return k.rs.rank.AllreduceSum(k.rs.Norm2R()) }

// DotRZ implements driver.Kernels.
func (k *RankKernels) DotRZ() float64 { return k.rs.rank.AllreduceSum(k.rs.DotRZ()) }

// ApplyPrecond implements driver.Kernels.
func (k *RankKernels) ApplyPrecond() { k.rs.ApplyPrecond() }

// CGInitP implements driver.Kernels.
func (k *RankKernels) CGInitP(precond bool) float64 {
	return k.rs.rank.AllreduceSum(k.rs.CGInitP(precond))
}

// CGCalcW implements driver.Kernels.
func (k *RankKernels) CGCalcW() float64 { return k.rs.rank.AllreduceSum(k.rs.CGCalcW()) }

// CGCalcUR implements driver.Kernels.
func (k *RankKernels) CGCalcUR(alpha float64, precond bool) float64 {
	return k.rs.rank.AllreduceSum(k.rs.CGCalcUR(alpha, precond))
}

// CGCalcWFused implements driver.FusedWDot.
func (k *RankKernels) CGCalcWFused() float64 { return k.rs.rank.AllreduceSum(k.rs.CGCalcWFused()) }

// CGCalcURFused implements driver.FusedURPrecond.
func (k *RankKernels) CGCalcURFused(alpha float64, precond bool) float64 {
	return k.rs.rank.AllreduceSum(k.rs.CGCalcURFused(alpha, precond))
}

// CGCalcP implements driver.Kernels.
func (k *RankKernels) CGCalcP(beta float64, precond bool) { k.rs.CGCalcP(beta, precond) }

// JacobiCopyU implements driver.Kernels.
func (k *RankKernels) JacobiCopyU() { k.rs.JacobiCopyU() }

// JacobiIterate implements driver.Kernels.
func (k *RankKernels) JacobiIterate() float64 {
	return k.rs.rank.AllreduceSum(k.rs.JacobiIterate())
}

// ChebyInit implements driver.Kernels.
func (k *RankKernels) ChebyInit(theta float64, precond bool) { k.rs.ChebyInit(theta, precond) }

// ChebyIterate implements driver.Kernels.
func (k *RankKernels) ChebyIterate(alpha, beta float64, precond bool) {
	k.rs.ChebyIterate(alpha, beta, precond)
}

// PPCGInitInner implements driver.Kernels.
func (k *RankKernels) PPCGInitInner(theta float64) { k.rs.PPCGInitInner(theta) }

// PPCGInnerIterate implements driver.Kernels.
func (k *RankKernels) PPCGInnerIterate(alpha, beta float64) { k.rs.PPCGInnerIterate(alpha, beta) }

// PPCGFinishInner implements driver.Kernels.
func (k *RankKernels) PPCGFinishInner() { k.rs.PPCGFinishInner() }

// FetchField implements driver.Kernels. Every rank must return the full
// global field: each process's driver captures its own in-memory recovery
// point from it, and RestoreField expects the whole slab on every rank. The
// chunks gather onto rank 0 exactly as in Port, then rank 0 relays the
// assembled slab back out — the relay reuses the checksummed wire path, so
// a corrupted gather cannot silently fork the ranks' recovery points.
func (k *RankKernels) FetchField(id driver.FieldID) []float64 {
	out := k.rs.fetchField(id)
	if k.rs.rank.ID() == 0 {
		for r := 1; r < k.rs.rank.Size(); r++ {
			k.rs.rank.Send(r, tagFetchSlab, out)
		}
		return out
	}
	return k.rs.rank.Recv(0, tagFetchSlab)
}

// RestoreField implements driver.FieldRestorer: every rank holds the same
// global slab and copies out its own chunk window.
func (k *RankKernels) RestoreField(id driver.FieldID, data []float64) {
	k.rs.restoreField(id, data)
}

// Close implements driver.Kernels. The rank and its world belong to the
// caller (the worker main loop); only the thread team is ours.
func (k *RankKernels) Close() {
	if k.rs.team != nil {
		k.rs.team.Close()
		k.rs.team = nil
	}
}
