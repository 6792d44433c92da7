package mpi

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// rankState is one rank's half of the port: the one chunk recipe
// (internal/backends/chunk) over this rank's sub-mesh under rankPolicy, with
// its own halo exchange: swap strips with the neighbouring ranks, reflect the
// physical sides.
type rankState struct {
	*chunk.Chunk[*grid.Field]
	rank     *comm.Rank
	team     *par.Team // nil for the pure-MPI build
	chunk    comm.Chunk
	physical chunk.Sides // sides with no neighbouring rank
	gnx, gny int         // global mesh extent (for field gathers)

	// Reusable exchange scratch: one buffer to pack outgoing halo strips
	// (Send copies into a pooled payload immediately) and one to receive
	// into. Together with comm's payload free list they make steady-state
	// halo exchange allocation-free.
	packBuf, recvBuf []float64
}

// rankPolicy is a rank's policy: the host policy over its rows, serial or,
// for the hybrid build, on the rank's thread team, and each Reduce — every
// reducing chunk kernel makes exactly one per total — then allreduces the
// rank's partial with its peers' in rank order. So the chunk's reducing
// kernels return the global value, bitwise identical on every rank.
type rankPolicy struct {
	*chunk.Host
	rank *comm.Rank
}

// Reduce implements chunk.Policy.
func (p rankPolicy) Reduce(name string, win chunk.Window, args []*grid.Field, body chunk.RedBody) float64 {
	return p.rank.AllreduceSum(p.Host.Reduce(name, win, args, body))
}

// Generate implements driver.Kernels: every rank derives the same global
// decomposition and initialises its own chunk.
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
	// Largest halo message: depth<=DefaultHalo strips of columns
	// (depth*ny) or full-width rows (depth*(nx+2*depth)).
	d := grid.DefaultHalo
	maxMsg := d * max(ch.NY, ch.NX+2*d)
	rs.packBuf = make([]float64, maxMsg)
	rs.recvBuf = make([]float64, maxMsg)
	return rs.Chunk.Generate(global.Sub(ch.X0, ch.Y0, ch.NX, ch.NY), states)
}

// --- halo exchange ---------------------------------------------------------

// Message tags encode field and travel direction; the mailbox's FIFO order
// per (source, tag) makes reusing them across exchanges safe.
const (
	dirWest = iota // toward smaller x
	dirEast        // toward larger x
	dirSouth
	dirNorth
	numDirs
)

func tag(fid driver.FieldID, dir int) int { return int(fid)*numDirs + dir }

// HaloExchange implements driver.Kernels: for each field, per phase,
// exchange strips with the neighbouring ranks, then reflect the sides that
// are physical boundaries.
func (rs *rankState) HaloExchange(fields []driver.FieldID, depth int) {
	ch := rs.chunk
	for _, fid := range fields {
		f := rs.Field(fid)
		nx, ny, d := f.Nx, f.Ny, f.Depth
		// X phase over interior rows: post both sends eagerly, then receive.
		// Strips are staged through the rank's reusable packBuf (Send copies
		// into a pooled payload before returning) and received with RecvInto
		// into the reusable recvBuf, so the exchange allocates nothing.
		if ch.Left >= 0 {
			rs.rank.Send(ch.Left, tag(fid, dirWest), packCols(f, 0, depth, rs.packBuf))
		}
		if ch.Right >= 0 {
			rs.rank.Send(ch.Right, tag(fid, dirEast), packCols(f, nx-depth, depth, rs.packBuf))
		}
		if ch.Left >= 0 {
			n := rs.rank.RecvInto(ch.Left, tag(fid, dirEast), rs.recvBuf)
			unpackCols(f, -depth, depth, rs.recvBuf[:n])
		}
		if ch.Right >= 0 {
			n := rs.rank.RecvInto(ch.Right, tag(fid, dirWest), rs.recvBuf)
			unpackCols(f, nx, depth, rs.recvBuf[:n])
		}
		rs.Reflect(fid, depth, rs.physical&(chunk.Left|chunk.Right))
		// Y phase over the full width (including the x halos just filled), so
		// corner halos carry diagonal-neighbour data after both phases.
		lo, hi := d-depth, d+nx+depth
		if ch.Down >= 0 {
			rs.rank.Send(ch.Down, tag(fid, dirSouth), packRows(f, 0, depth, lo, hi, rs.packBuf))
		}
		if ch.Up >= 0 {
			rs.rank.Send(ch.Up, tag(fid, dirNorth), packRows(f, ny-depth, depth, lo, hi, rs.packBuf))
		}
		if ch.Down >= 0 {
			n := rs.rank.RecvInto(ch.Down, tag(fid, dirNorth), rs.recvBuf)
			unpackRows(f, -depth, depth, lo, hi, rs.recvBuf[:n])
		}
		if ch.Up >= 0 {
			n := rs.rank.RecvInto(ch.Up, tag(fid, dirSouth), rs.recvBuf)
			unpackRows(f, ny, depth, lo, hi, rs.recvBuf[:n])
		}
		rs.Reflect(fid, depth, rs.physical&(chunk.Down|chunk.Up))
	}
}

// packCols packs columns [i0, i0+w) over interior rows into scratch,
// column-major within rows (row-major traversal), returning the filled
// prefix.
func packCols(f *grid.Field, i0, w int, scratch []float64) []float64 {
	buf := scratch[:w*f.Ny]
	n := 0
	for j := 0; j < f.Ny; j++ {
		row := f.Row(j)
		for k := 0; k < w; k++ {
			buf[n] = row[f.Depth+i0+k]
			n++
		}
	}
	return buf
}

func unpackCols(f *grid.Field, i0, w int, buf []float64) {
	n := 0
	for j := 0; j < f.Ny; j++ {
		row := f.Row(j)
		for k := 0; k < w; k++ {
			row[f.Depth+i0+k] = buf[n]
			n++
		}
	}
}

// packRows packs rows [j0, j0+h) over columns [lo, hi) (offsets into the
// padded row) into scratch, returning the filled prefix.
func packRows(f *grid.Field, j0, h, lo, hi int, scratch []float64) []float64 {
	w := hi - lo
	buf := scratch[:h*w]
	for k := 0; k < h; k++ {
		copy(buf[k*w:(k+1)*w], f.Row(j0 + k)[lo:hi])
	}
	return buf
}

func unpackRows(f *grid.Field, j0, h, lo, hi int, buf []float64) {
	w := hi - lo
	for k := 0; k < h; k++ {
		copy(f.Row(j0 + k)[lo:hi], buf[k*w:(k+1)*w])
	}
}

// --- field gather ------------------------------------------------------------

// Field-gather tags live above the halo-exchange tag space.
const (
	tagFetchMeta = 100000 + iota
	tagFetchData
)

// RestoreField implements driver.Kernels, fetchField's inverse. Every
// rank is handed the same global slab, so each simply copies out its own
// chunk window — no gather/scatter messaging at all.
func (rs *rankState) RestoreField(id driver.FieldID, data []float64) {
	f, ch := rs.Field(id), rs.chunk
	for j := 0; j < ch.NY; j++ {
		copy(f.InteriorRow(j), data[(ch.Y0+j)*rs.gnx+ch.X0:][:ch.NX])
	}
}

// fetchField gathers the named field's interior onto rank 0 in global
// row-major order; other ranks return nil.
func (rs *rankState) fetchField(id driver.FieldID) []float64 {
	ch := rs.chunk
	local := rs.Interior(rs.Field(id).Data)
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
