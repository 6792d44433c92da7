// Package opsport is TeaLeaf re-engineered on the OPS embedded DSL
// (internal/ops), the analogue of the paper's OPS builds: the one chunk
// recipe (internal/backends/chunk, shared with every other version) under a
// chunk.Policy whose every launch is an ops.ParLoopRow over dats, with the
// launch's declared reach as the loop's stencil. The variant matrix —
// OpenMP, MPI, OpenMP+MPI, MPI Tiled, CUDA, OpenACC — comes entirely from
// library configuration, which is the productivity claim the paper evaluates.
//
// Each rank's OPS context, block and dats form one rank-local kernel set
// that allreduces its own partials; the SPMD runner (internal/backends/spmd)
// drives one per rank on the message-passing runtime, and a single-chunk
// variant is a world of one whose calls are direct method calls. Halo
// exchanges move dat strips between ranks and apply the reflective physical
// boundary through the recipe's Reflect, so even the boundary code is
// ParLoops and queues into a tiled chain.
package opsport

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/spmd"
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

// rankState is one rank's OPS context and the chunk recipe on it: the OPS
// port as a rank-local driver.Kernels, which allreduces its own partials,
// with its own halo exchange: swap dat strips with the neighbouring ranks,
// reflect the physical sides.
type rankState struct {
	*chunk.Chunk[*ops.Dat]
	name     string
	tiling   bool
	rank     *comm.Rank
	ctx      *ops.Context
	chunk    comm.Chunk
	physical chunk.Sides // sides with no neighbouring rank
	gnx, gny int         // global extent for field gathers

	// Reusable scratch for halo strip packing/receiving, so steady-state
	// exchanges stay allocation-free.
	packBuf, recvBuf []float64
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
	pol := &policy{ctx: ctx, rank: r, stencils: map[chunk.Reach]*ops.Stencil{}}
	return &rankState{Chunk: chunk.New[*ops.Dat](pol, false), name: opt.variantName(), tiling: opt.Tiling, rank: r, ctx: ctx}, nil
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

// Generate implements driver.Kernels: every rank derives the same global
// decomposition and declares and initialises its own chunk.
func (rs *rankState) Generate(global *grid.Mesh, states []config.State) error {
	ch := comm.Decompose(rs.rank.Size(), global.Nx, global.Ny).ChunkOf(rs.rank.ID(), global.Nx, global.Ny)
	rs.chunk = ch
	rs.gnx, rs.gny = global.Nx, global.Ny
	rs.physical = 0
	for k, neighbour := range [...]int{ch.Left, ch.Right, ch.Down, ch.Up} { // chunk.Left<<k
		if neighbour < 0 {
			rs.physical |= chunk.Left << k
		}
	}
	maxMsg := halo * max(ch.NY, ch.NX+2*halo) // the deepest strip of either phase
	rs.packBuf, rs.recvBuf = make([]float64, maxMsg), make([]float64, maxMsg)
	return rs.Chunk.Generate(global.Sub(ch.X0, ch.Y0, ch.NX, ch.NY), states)
}

// tag is a strip's message tag: its field and direction of travel (0 west,
// 1 east, 2 south, 3 north).
func tag(fid driver.FieldID, dir int) int { return int(fid)*4 + dir }

// HaloExchange implements driver.Kernels: for each field, per phase,
// exchange strips with the neighbouring ranks, then reflect the physical
// sides. Packing reads dats on the host, so a rank with neighbours lands its
// queued loops first, and again before the y phase packs the x halos. A
// single chunk's exchange is Reflect's loops alone, which stay queued, so a
// tiled context chains across whole solver iterations.
func (rs *rankState) HaloExchange(fields []driver.FieldID, depth int) {
	neighbours := rs.physical != chunk.AllSides
	if neighbours {
		rs.ctx.Flush()
	}
	for _, id := range fields {
		rs.phase(id, false, depth)
		rs.Reflect(id, depth, rs.physical&(chunk.Left|chunk.Right))
		if neighbours {
			rs.ctx.Flush()
		}
		rs.phase(id, true, depth)
		rs.Reflect(id, depth, rs.physical&(chunk.Down|chunk.Up))
	}
}

// phase swaps depth-deep strips of a field with the neighbours across the
// low and high faces of one axis, posting both sends before either receive:
// along x, columns over the interior rows; along y, rows over the padded
// width, so corners carry the diagonal neighbours' data. Strips travelling
// toward the low neighbour are tagged dir, toward the high one dir+1.
func (rs *rankState) phase(id driver.FieldID, alongY bool, depth int) {
	ch, data := rs.chunk, rs.Field(id).Data()
	stride := ch.NX + 2*halo
	lo, hi, dir, n := ch.Left, ch.Right, 0, ch.NX
	if alongY {
		lo, hi, dir, n = ch.Down, ch.Up, 2, ch.NY
	}
	// strip copies the strip whose first line along the axis is k out to buf
	// (or in from it), row by row, and returns the part of buf it used.
	strip := func(k int, buf []float64, out bool) []float64 {
		i0, j0, w, h := k, 0, depth, ch.NY
		if alongY {
			i0, j0, w, h = -halo, k, stride, depth
		}
		buf = buf[:w*h]
		for r := 0; r < h; r++ {
			row := data[(j0+r+halo)*stride+i0+halo:][:w]
			if out {
				copy(buf[r*w:], row)
			} else {
				copy(row, buf[r*w:])
			}
		}
		return buf
	}
	if lo >= 0 {
		rs.rank.Send(lo, tag(id, dir), strip(0, rs.packBuf, true))
	}
	if hi >= 0 {
		rs.rank.Send(hi, tag(id, dir+1), strip(n-depth, rs.packBuf, true))
	}
	if lo >= 0 {
		strip(-depth, rs.recvBuf[:rs.rank.RecvInto(lo, tag(id, dir+1), rs.recvBuf)], false)
	}
	if hi >= 0 {
		strip(n, rs.recvBuf[:rs.rank.RecvInto(hi, tag(id, dir), rs.recvBuf)], false)
	}
}

// Field-gather tags live above the halo-exchange tag space.
const (
	tagFetchMeta = 100000 + iota
	tagFetchData
)

// RestoreField implements driver.Kernels, FetchField's inverse. Every rank
// is handed the same global slab, so each writes its own chunk window into
// its dat and re-uploads — no gather/scatter messaging at all.
func (rs *rankState) RestoreField(id driver.FieldID, data []float64) {
	// A rollback abandons the failed step, so its queued loops (and their
	// pending reductions) are dropped, not run against the restored fields:
	// the resilient driver replays the whole step from SetField.
	rs.ctx.Discard()
	d, ch := rs.Field(id), rs.chunk
	d.Download()
	for j := 0; j < ch.NY; j++ {
		row := data[(ch.Y0+j)*rs.gnx+ch.X0:]
		for i := 0; i < ch.NX; i++ {
			d.Set(i, j, row[i])
		}
	}
	d.Upload()
}

// FetchField implements driver.Kernels: it gathers the dat's interior onto
// rank 0 in global row-major order (downloading from the device first on
// the CUDA backend); other ranks return nil.
func (rs *rankState) FetchField(id driver.FieldID) []float64 {
	rs.ctx.Flush()
	d, ch := rs.Field(id), rs.chunk
	d.Download()
	local := make([]float64, 0, ch.NX*ch.NY)
	for j := 0; j < ch.NY; j++ {
		for i := 0; i < ch.NX; i++ {
			local = append(local, d.At(i, j))
		}
	}
	if rs.rank.ID() != 0 {
		rs.rank.Send(0, tagFetchMeta, []float64{
			float64(ch.X0), float64(ch.Y0), float64(ch.NX), float64(ch.NY),
		})
		rs.rank.Send(0, tagFetchData, local)
		return nil
	}
	out := make([]float64, rs.gnx*rs.gny)
	place := func(x0, y0, nx, ny int, data []float64) {
		for j := 0; j < ny; j++ {
			copy(out[(y0+j)*rs.gnx+x0:(y0+j)*rs.gnx+x0+nx], data[j*nx:(j+1)*nx])
		}
	}
	place(ch.X0, ch.Y0, ch.NX, ch.NY, local)
	for r := 1; r < rs.rank.Size(); r++ {
		meta := rs.rank.Recv(r, tagFetchMeta)
		data := rs.rank.Recv(r, tagFetchData)
		place(int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3]), data)
	}
	return out
}
