package chunk

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// RankPolicy is a Policy that also reaches a field on the host: Host returns
// its padded row-major host storage, current once every queued launch has
// landed (Land), and Publish makes host writes to it visible to launches.
type RankPolicy[F any] interface {
	Policy[F]
	Host(F) []float64
	Land()
	Publish(F)
}

// Host, Land and Publish implement RankPolicy: a grid.Field's storage is the
// host's, and every host launch has run when it returns.
func (h *Host) Host(f *grid.Field) []float64 { return f.Data }
func (h *Host) Land()                        {}
func (h *Host) Publish(*grid.Field)          {}

// Rank is one rank's chunk of a distributed version: the recipe over the
// rank's share of the global decomposition, every Reduce allreduced with the
// peers' in rank order, so each reducing kernel returns the global value,
// bitwise identical on every rank, and the strip exchange, the gather onto
// rank 0 and the restore of a global slab. Name and Close belong to the port.
type Rank[F any] struct {
	*Chunk[F]
	pol      RankPolicy[F]
	rank     *comm.Rank
	part     comm.Chunk
	physical Sides // sides with no neighbouring rank
	gnx, gny int   // the global mesh extent

	// Reusable strip buffers (Send copies into a pooled payload at once), so
	// a steady-state exchange allocates nothing.
	packBuf, recvBuf []float64
}

// NewRank creates rank r's chunk on pol.
func NewRank[F any](pol RankPolicy[F], r *comm.Rank) *Rank[F] {
	return &Rank[F]{Chunk: New[F](allreduce[F]{pol, r}, false), pol: pol, rank: r}
}

// allreduce completes each of a layer's Reduce partials across the ranks.
type allreduce[F any] struct {
	RankPolicy[F]
	rank *comm.Rank
}

// Reduce implements Policy.
func (p allreduce[F]) Reduce(name string, win Window, args []F, body RedBody) float64 {
	return p.rank.AllreduceSum(p.RankPolicy.Reduce(name, win, args, body))
}

// Generate implements driver.Kernels: every rank derives the same global
// decomposition, so a mesh too small for it is the same error on every rank,
// and generates its own chunk.
func (rk *Rank[F]) Generate(global *grid.Mesh, states []config.State) error {
	nx, ny := global.Nx, global.Ny
	g := comm.Decompose(rk.rank.Size(), nx, ny)
	if g.PX > nx || g.PY > ny {
		return fmt.Errorf("%d ranks: a %dx%d rank grid leaves some rank no cells of the %dx%d mesh", g.Size(), g.PX, g.PY, nx, ny)
	}
	ch := g.ChunkOf(rk.rank.ID(), nx, ny)
	rk.part, rk.gnx, rk.gny = ch, nx, ny
	rk.physical = 0
	for k, neighbour := range [...]int{ch.Left, ch.Right, ch.Down, ch.Up} { // Left<<k
		if neighbour < 0 {
			rk.physical |= Left << k
		}
	}
	maxMsg := halo * max(ch.NY, ch.NX+2*halo) // the deepest strip of either phase
	rk.packBuf, rk.recvBuf = make([]float64, maxMsg), make([]float64, maxMsg)
	return rk.Chunk.Generate(global.Sub(ch.X0, ch.Y0, ch.NX, ch.NY), states)
}

// Strip tags: field and direction of travel (0 west, 1 east, 2 south, 3
// north); the mailbox's order per (source, tag) makes reusing them safe. The
// gather's tags lie above every strip tag.
func tag(id driver.FieldID, dir int) int { return int(id)*4 + dir }

const (
	tagFetchMeta = 100000 + iota
	tagFetchData
)

// HaloExchange implements driver.Kernels: for each field, swap x strips with
// the neighbours and reflect the physical x sides, then the same along y. A
// rank with neighbours lands the layer's queued launches before the fields,
// and again before each y phase packs the x halos just filled; a rank without
// any runs Reflect's launches alone, which a lazy layer keeps queued.
func (rk *Rank[F]) HaloExchange(fields []driver.FieldID, depth int) {
	neighbours := rk.physical != AllSides
	if neighbours {
		rk.pol.Land()
	}
	for _, id := range fields {
		rk.phase(id, false, depth)
		rk.Reflect(id, depth, rk.physical&(Left|Right))
		if neighbours {
			rk.pol.Land()
		}
		rk.phase(id, true, depth)
		rk.Reflect(id, depth, rk.physical&(Down|Up))
	}
}

// phase swaps depth-deep strips of a field with the neighbours across the
// low and high sides of one axis, posting both sends before either receive.
// Strips travelling toward the low neighbour are tagged dir, toward the high
// one dir+1.
func (rk *Rank[F]) phase(id driver.FieldID, alongY bool, depth int) {
	ch := rk.part
	lo, hi, dir, n := ch.Left, ch.Right, 0, ch.NX
	if alongY {
		lo, hi, dir, n = ch.Down, ch.Up, 2, ch.NY
	}
	if lo < 0 && hi < 0 {
		return
	}
	f := rk.Field(id)
	data := rk.pol.Host(f)
	if lo >= 0 {
		rk.rank.Send(lo, tag(id, dir), rk.strip(data, alongY, 0, depth, rk.packBuf, true))
	}
	if hi >= 0 {
		rk.rank.Send(hi, tag(id, dir+1), rk.strip(data, alongY, n-depth, depth, rk.packBuf, true))
	}
	if lo >= 0 {
		rk.strip(data, alongY, -depth, depth, rk.recvBuf[:rk.rank.RecvInto(lo, tag(id, dir+1), rk.recvBuf)], false)
	}
	if hi >= 0 {
		rk.strip(data, alongY, n, depth, rk.recvBuf[:rk.rank.RecvInto(hi, tag(id, dir), rk.recvBuf)], false)
	}
	rk.pol.Publish(f)
}

// strip copies the depth-deep strip whose first line along the axis is k out
// of the padded field data into buf (or in from it), row by row, and returns
// the part of buf it used: along x, columns over the interior rows; along y,
// rows over the interior columns widened by depth, the columns Reflect
// covers, so corners carry the diagonal neighbours' cells.
func (rk *Rank[F]) strip(data []float64, alongY bool, k, depth int, buf []float64, out bool) []float64 {
	stride := rk.part.NX + 2*halo
	at, w, h := halo*stride+halo+k, depth, rk.part.NY
	if alongY {
		at, w, h = (halo+k)*stride+halo-depth, rk.part.NX+2*depth, depth
	}
	buf = buf[:w*h]
	for n := 0; n < len(buf); n, at = n+w, at+stride {
		for i := 0; i < w; i++ { // an x strip row is depth cells: a copy call per row costs more
			if out {
				buf[n+i] = data[at+i]
			} else {
				data[at+i] = buf[n+i]
			}
		}
	}
	return buf
}

// FetchField implements driver.Kernels: it gathers the field's interior onto
// rank 0 in global row-major order; other ranks return nil.
func (rk *Rank[F]) FetchField(id driver.FieldID) []float64 {
	rk.pol.Land()
	ch := rk.part
	meta := []float64{float64(ch.X0), float64(ch.Y0), float64(ch.NX), float64(ch.NY)}
	data := rk.Interior(rk.pol.Host(rk.Field(id)))
	if rk.rank.ID() != 0 {
		rk.rank.Send(0, tagFetchMeta, meta)
		rk.rank.Send(0, tagFetchData, data)
		return nil
	}
	out := make([]float64, rk.gnx*rk.gny)
	for r := 0; r < rk.rank.Size(); r++ {
		if r > 0 {
			meta = rk.rank.Recv(r, tagFetchMeta)
			data = rk.rank.Recv(r, tagFetchData)
		}
		x0, y0, nx, ny := int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3])
		for j := 0; j < ny; j++ {
			copy(out[(y0+j)*rk.gnx+x0:][:nx], data[j*nx:(j+1)*nx])
		}
	}
	return out
}

// RestoreField implements driver.Kernels, FetchField's inverse. Every rank is
// handed the same global slab, so each writes its own window of it over its
// interior, with no messages at all.
func (rk *Rank[F]) RestoreField(id driver.FieldID, data []float64) {
	f, ch := rk.Field(id), rk.part
	host := rk.pol.Host(f)
	for j := 0; j < ch.NY; j++ {
		copy(host[(j+halo)*(ch.NX+2*halo)+halo:][:ch.NX], data[(ch.Y0+j)*rk.gnx+ch.X0:][:ch.NX])
	}
	rk.pol.Publish(f)
}
