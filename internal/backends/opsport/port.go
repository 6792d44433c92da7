// Package opsport is TeaLeaf re-engineered on the OPS embedded DSL
// (internal/ops), the analogue of the paper's OPS builds. Every kernel is
// written exactly once, as an ops.ParLoopRow: access descriptors around the
// internal/kern row body every other version shares. The variant matrix —
// OpenMP, MPI, OpenMP+MPI, MPI Tiled, CUDA, OpenACC — comes entirely from
// library configuration, which is the productivity claim the paper evaluates.
//
// Each rank's OPS context, block and dats form one rank-local kernel set
// that allreduces its own partials; the SPMD runner (internal/backends/spmd)
// drives one per rank on the message-passing runtime, and a single-chunk
// variant is a world of one whose calls are direct method calls. Halo
// exchanges move dat strips between ranks and apply the reflective physical
// boundary as ParLoops, so even the boundary code is backend-portable.
package opsport

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/spmd"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// Options selects an OPS TeaLeaf variant.
type Options struct {
	// Backend is the per-rank OPS backend.
	Backend ops.Backend
	// Ranks is the number of distributed chunks (1 = single chunk).
	Ranks int
	// Threads per rank for the OpenMP/ACC backends; the device's thread
	// count for the CUDA backend.
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

// Port is an OPS variant: the SPMD runner over one rankState per rank. Its
// TilingSnapshot sums the ranks' OPS execution counters.
type Port = spmd.Runner

// New creates the OPS TeaLeaf variant described by opt.
func New(opt Options) (*Port, error) {
	if opt.Ranks <= 0 {
		opt.Ranks = 1
	}
	if opt.Ranks > 1 && opt.Backend == ops.BackendCUDA {
		return nil, fmt.Errorf("opsport: the CUDA backend runs single-chunk (no MPI+CUDA variant in the study)")
	}
	return spmd.New(opt.variantName(), comm.NewWorld(opt.Ranks), func(r *comm.Rank) (driver.Kernels, error) {
		return newRankState(opt, r)
	})
}

// newRankState builds rank r's kernel set: its own OPS context on opt's
// backend.
func newRankState(opt Options, r *comm.Rank) (*rankState, error) {
	ctx, err := ops.NewContext(ops.Options{
		Backend:  opt.Backend,
		Threads:  opt.Threads,
		Block:    opt.Block,
		Tiling:   opt.Tiling,
		TileX:    opt.TileX,
		TileY:    opt.TileY,
		TileAuto: opt.TileAuto,
	})
	if err != nil {
		return nil, err
	}
	return &rankState{name: opt.variantName(), tiling: opt.Tiling, rank: r, ctx: ctx}, nil
}

// Name implements driver.Kernels.
func (rs *rankState) Name() string { return rs.name }

// Close implements driver.Kernels: release the rank's OPS context.
func (rs *rankState) Close() { rs.ctx.Close() }

// TilingSnapshot implements driver.TilingReporter for one rank: its
// counters and its resolved tile geometry.
func (rs *rankState) TilingSnapshot() driver.TilingSnapshot {
	s := rs.ctx.Stats()
	tx, ty := rs.ctx.TileShape()
	return driver.TilingSnapshot{
		Tiling: rs.tiling,
		TileX:  tx, TileY: ty,
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
