package mpi

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// tagFetchSlab carries the assembled global field from rank 0 back out to
// the other ranks in RankKernels.FetchField: the first tag above the rank
// layer's gather.
const tagFetchSlab = 100002

// RankKernels is the MPI port as a rank-local driver.Kernels: ONE rank's
// share of the mesh on one *comm.Rank, allreducing its own partials. The
// SPMD runner drives one per rank in process (New); a fleet runs one per OS
// process on a comm.JoinWorld rank (NewRankKernels), where every process
// runs its own driver loop and the loops stay in lockstep because every
// control decision (convergence, error norms, time) derives from allreduced
// scalars that are bitwise identical on all ranks. Either way the ranks
// compute bit for bit the same thing.
//
// Every kernel but Name, Close and FetchField's relay is the rank layer's
// (chunk.Rank) under the host policy.
type RankKernels struct {
	*chunk.Rank[*grid.Field]
	rank *comm.Rank
	team *par.Team // nil for the pure-MPI build
	// relay sends FetchField's gathered slab back out from rank 0: each
	// fleet process needs its own copy, while in one process rank 0's is
	// the result.
	relay bool
}

var _ driver.Kernels = (*RankKernels)(nil)

// NewRankKernels wraps a fleet process's rank. threads > 1 adds a
// per-process thread team (the hybrid build); Close releases it.
func NewRankKernels(r *comm.Rank, threads int) *RankKernels {
	k := newRankKernels(r, threads)
	k.relay = true
	return k
}

func newRankKernels(r *comm.Rank, threads int) *RankKernels {
	k := &RankKernels{rank: r}
	if threads > 1 {
		k.team = par.NewTeam(threads)
	}
	k.Rank = chunk.NewRank[*grid.Field](chunk.NewHost(k.team), r)
	return k
}

// Name implements driver.Kernels.
func (k *RankKernels) Name() string {
	return fmt.Sprintf("manual-mpi-fleet[%d/%d]", k.rank.ID(), k.rank.Size())
}

// FetchField implements driver.Kernels: the chunks gather onto rank 0. With
// relay set rank 0 then sends the assembled slab back out, so every fleet
// process captures its own in-memory recovery point from it (RestoreField
// expects the whole slab on every rank); the relay reuses the checksummed
// wire path, so a corrupted gather cannot silently fork the ranks' recovery
// points. Without relay the other ranks return nil.
func (k *RankKernels) FetchField(id driver.FieldID) []float64 {
	out := k.Rank.FetchField(id)
	if !k.relay {
		return out
	}
	if k.rank.ID() == 0 {
		for r := 1; r < k.rank.Size(); r++ {
			k.rank.Send(r, tagFetchSlab, out)
		}
		return out
	}
	return k.rank.Recv(0, tagFetchSlab)
}

// Close implements driver.Kernels. The rank and its world belong to the
// caller; only the thread team is ours.
func (k *RankKernels) Close() {
	if k.team != nil {
		k.team.Close()
		k.team = nil
	}
}
