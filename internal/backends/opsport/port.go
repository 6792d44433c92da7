// Package opsport is TeaLeaf re-engineered on the OPS embedded DSL
// (internal/ops), the analogue of the paper's OPS builds: the one chunk
// recipe (internal/backends/chunk) under a policy whose every launch is an
// ops.ParLoopRow over dats, with the launch's declared reach as the loop's
// stencil. The variant matrix — OpenMP, MPI, OpenMP+MPI, MPI Tiled, CUDA,
// OpenACC — comes entirely from library configuration, which is the
// productivity claim the paper evaluates. Each rank's OPS context is one
// rank-local kernel set on the shared rank layer (chunk.Rank), which
// exchanges, gathers and allreduces as it does for the MPI port; the SPMD
// runner (internal/backends/spmd) drives one per rank, and a single chunk is
// a world of one whose exchange is Reflect's ParLoops alone, which queue into
// a tiled chain.
package opsport

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
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

// rankState is one rank's OPS context and the rank layer (chunk.Rank) on it:
// the OPS port as a rank-local driver.Kernels.
type rankState struct {
	*chunk.Rank[*ops.Dat]
	name   string
	tiling bool
	ctx    *ops.Context
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
	pol := &policy{ctx: ctx, stencils: map[chunk.Reach]*ops.Stencil{}}
	return &rankState{Rank: chunk.NewRank[*ops.Dat](pol, r), name: opt.variantName(), tiling: opt.Tiling, ctx: ctx}, nil
}

// Name implements driver.Kernels.
func (rs *rankState) Name() string { return rs.name }

// Close implements driver.Kernels: release the rank's OPS context.
func (rs *rankState) Close() { rs.ctx.Close() }

// RestoreField implements driver.Kernels. A rollback abandons the failed
// step, so its queued loops (and their pending reductions) are dropped, not
// run against the restored fields: the resilient driver replays the whole
// step from SetField.
func (rs *rankState) RestoreField(id driver.FieldID, data []float64) {
	rs.ctx.Discard()
	rs.Rank.RestoreField(id, data)
}

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
