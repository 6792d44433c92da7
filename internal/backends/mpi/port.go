// Package mpi is the distributed-memory TeaLeaf port, the analogue of the
// mini-app's reference MPI (and hybrid MPI+OpenMP) build: the mesh is
// decomposed into one chunk per rank, ranks run SPMD on the message-passing
// runtime (internal/comm), halos are exchanged with eager sends, and
// reductions are MPI-style allreduces. Each rank may additionally
// parallelise its kernels over a thread team, giving the paper's
// "OpenMP and MPI" version.
//
// The port is written once, as the rank-local RankKernels: the rank layer
// shared with the OPS MPI versions (chunk.Rank: the one chunk recipe over the
// rank's sub-mesh, each reduction allreduced, strip halo exchange, gather)
// under the host policy. In one process the SPMD runner
// (internal/backends/spmd) drives one per rank, rank 0 on the driver's own
// goroutine; a fleet runs one per OS process.
package mpi

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/spmd"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
)

// Port is an in-process world of ranks: the SPMD runner over one
// RankKernels per rank.
type Port = spmd.Runner

// New creates the port with the given rank count and threads per rank.
// threads <= 1 is the pure-MPI build; threads > 1 the hybrid build.
func New(ranks, threads int) *Port {
	if ranks <= 0 {
		panic(fmt.Sprintf("mpi: rank count must be positive, got %d", ranks))
	}
	return newPort(comm.NewWorld(ranks), threads, "")
}

// NewSocket creates the port on a loopback socket world: the same ranks and
// kernels as New, but every send, reduction and broadcast crosses the
// length-prefixed checksummed wire protocol instead of an in-process
// mailbox. It exists to prove transport transparency — the conformance suite
// runs every deck over it and must get bitwise-identical physics — and to
// exercise the wire path under the chaos harness without spawning processes.
func NewSocket(ranks, threads int, opt comm.SocketOptions) (*Port, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mpi: rank count must be positive, got %d", ranks)
	}
	w, err := comm.NewSocketWorld(ranks, opt)
	if err != nil {
		return nil, err
	}
	return newPort(w, threads, "-socket"), nil
}

// newPort runs one RankKernels per rank of w, under the build's name and the
// transport's suffix.
func newPort(w *comm.World, threads int, transport string) *Port {
	name := "manual-mpi"
	if threads > 1 {
		name += "-omp"
	}
	// Building a RankKernels cannot fail, so neither can the runner.
	p, _ := spmd.New(name+transport, w, func(r *comm.Rank) (driver.Kernels, error) {
		return newRankKernels(r, threads), nil
	})
	return p
}
