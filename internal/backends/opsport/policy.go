package opsport

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
)

const halo = grid.DefaultHalo

// policy is the OPS layer as a chunk.RankPolicy over the rank's dats. Every
// For launch is one ParLoopRow, queued on a tiling context, and every Reduce
// a deferred reducing ParLoopRow whose value is read at once, so a chain
// queues up to each reduction. A launch's Reach is its loop's stencil
// on every argument, which the tiling skew and the bounds check are derived
// from. Arguments are declared RW: nothing in ops reads an access mode at run
// time. The rank layer reaches a dat's host copy once the queue has flushed.
type policy struct {
	ctx      *ops.Context
	block    *ops.Block
	stride   int
	stencils map[chunk.Reach]*ops.Stencil
}

// Alloc implements chunk.Policy: the rank's block and its dats, whose
// working storage is the recipe's padded row-major layout.
func (p *policy) Alloc(n, rows, cols int) []*ops.Dat {
	p.block = p.ctx.DeclBlock("tea", cols-2*halo, rows-2*halo)
	p.stride = cols
	names := make([]string, n)
	for k := range names {
		names[k] = fmt.Sprint("field", k)
	}
	return p.block.DeclDats(halo, names...)
}

// For implements chunk.Policy.
func (p *policy) For(name string, win chunk.Window, args []*ops.Dat, body chunk.Body) {
	r, oa, a := p.loop(win, args)
	p.ctx.ParLoopRow(name, p.block, r, oa, func(acc []*ops.Acc, _ []float64, n int) {
		lo := p.at(acc[0])
		body(a, lo, lo+n)
	})
}

// Reduce implements chunk.Policy: each row (each device block) threads one
// accumulator through its segments, and the partials combine in row (block)
// order.
func (p *policy) Reduce(name string, win chunk.Window, args []*ops.Dat, body chunk.RedBody) float64 {
	r, oa, a := p.loop(win, args)
	red := p.ctx.ParLoopRedDeferredRow(name, p.block, r, 1, oa, func(acc []*ops.Acc, red []float64, n int) {
		lo := p.at(acc[0])
		red[0] = body(a, lo, lo+n, red[0])
	})
	return red.Value()
}

// Host, Land and Publish implement chunk.RankPolicy: the dat's host copy,
// refreshed from the device and uploaded back on the CUDA backend, and a
// flush of the queued loops.
func (p *policy) Host(d *ops.Dat) []float64 { d.Download(); return d.Host() }
func (p *policy) Land()                     { p.ctx.Flush() }
func (p *policy) Publish(d *ops.Dat)        { d.Upload() }

// loop declares a launch: its range in block coordinates, an index argument
// (which seats each segment) followed by every dat through the stencil of
// the launch's reach, and the dats' working slices in argument order.
func (p *policy) loop(win chunk.Window, args []*ops.Dat) (ops.Range, []ops.Arg, [][]float64) {
	s := p.stencils[win.Reach]
	if s == nil {
		r := win.Reach
		s = ops.NewStencil(fmt.Sprintf("reach%v", r), [2]int{r.X0, r.Y0}, [2]int{r.X1, r.Y1})
		p.stencils[win.Reach] = s
	}
	oa := make([]ops.Arg, 1, 1+len(args))
	oa[0] = ops.ArgIdx()
	a := make([][]float64, len(args))
	for k, d := range args {
		oa = append(oa, ops.ArgDat(d, s, ops.RW))
		a[k] = d.Data()
	}
	return ops.Range{XLo: win.X0 - halo, XHi: win.X1 - halo, YLo: win.Y0 - halo, YHi: win.Y1 - halo}, oa, a
}

// at is the flat index of the point an index accessor is seated on.
func (p *policy) at(idx *ops.Acc) int { return (idx.J+halo)*p.stride + idx.I + halo }
