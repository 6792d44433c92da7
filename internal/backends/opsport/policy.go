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
// a reducing ParLoopRedRow, whose value is read at once, so a chain
// queues up to each reduction. A launch's Reach is its loop's stencil
// on every argument, which the tiling skew and the bounds check are derived
// from. Arguments are declared RW: nothing in ops reads an access mode at run
// time. The rank layer reaches a dat's host copy once the queue has flushed.
//
// A launch allocates nothing once warm: the loop copies the one argument
// list, and each launch since the queue last drained holds a recycled slot
// whose row kernels were bound when the slot was made.
type policy struct {
	ctx      *ops.Context
	block    *ops.Block
	stride   int
	stencils map[chunk.Reach]*ops.Stencil
	args     []ops.Arg
	sum      [1]float64 // Reduce's total
	// slots[:queued] are the launches issued since the queue last drained;
	// a tiled queue holds several at once.
	slots  []*slot
	queued int
}

// slot is one launch's body and working slices; forRow and redRow are its
// row kernels, bound once.
type slot struct {
	p              *policy
	a              [][]float64
	body           chunk.Body
	red            chunk.RedBody
	forRow, redRow ops.RowKernel
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
	r, s := p.loop(win, args)
	s.body = body
	p.ctx.ParLoopRow(name, p.block, r, p.args, s.forRow)
}

// Reduce implements chunk.Policy: each row (each device block) threads one
// accumulator through its segments, and the partials combine in row (block)
// order. Reading the value drains the queue.
func (p *policy) Reduce(name string, win chunk.Window, args []*ops.Dat, body chunk.RedBody) float64 {
	r, s := p.loop(win, args)
	s.red = body
	p.ctx.ParLoopRedRow(name, p.block, r, p.sum[:], p.args, s.redRow)
	p.queued = 0
	return p.sum[0]
}

// Host, Land and Publish implement chunk.RankPolicy: the dat's host copy,
// refreshed from the device and uploaded back on the CUDA backend, and a
// flush of the queued loops.
func (p *policy) Host(d *ops.Dat) []float64 { d.Download(); return d.Host() }
func (p *policy) Land()                     { p.ctx.Flush(); p.queued = 0 }
func (p *policy) Publish(d *ops.Dat)        { d.Upload() }

// loop declares a launch: its range in block coordinates, the argument list
// (an index argument, which seats each segment, followed by every dat
// through the stencil of the launch's reach) and the launch's slot, holding
// the dats' working slices in argument order.
func (p *policy) loop(win chunk.Window, args []*ops.Dat) (ops.Range, *slot) {
	st := p.stencils[win.Reach]
	if st == nil {
		r := win.Reach
		st = ops.NewStencil(fmt.Sprintf("reach%v", r), [2]int{r.X0, r.Y0}, [2]int{r.X1, r.Y1})
		p.stencils[win.Reach] = st
	}
	if p.queued == len(p.slots) {
		s := &slot{p: p}
		s.forRow, s.redRow = s.runFor, s.runReduce
		p.slots = append(p.slots, s)
	}
	s := p.slots[p.queued]
	p.queued++
	p.args = append(p.args[:0], ops.ArgIdx())
	s.a = s.a[:0]
	for _, d := range args {
		p.args = append(p.args, ops.ArgDat(d, st, ops.RW))
		s.a = append(s.a, d.Data())
	}
	return ops.Range{XLo: win.X0 - halo, XHi: win.X1 - halo, YLo: win.Y0 - halo, YHi: win.Y1 - halo}, s
}

func (s *slot) runFor(acc []*ops.Acc, _ []float64, n int) {
	lo := s.p.at(acc[0])
	s.body(s.a, lo, lo+n)
}

func (s *slot) runReduce(acc []*ops.Acc, red []float64, n int) {
	lo := s.p.at(acc[0])
	red[0] = s.red(s.a, lo, lo+n, red[0])
}

// at is the flat index of the point an index accessor is seated on.
func (p *policy) at(idx *ops.Acc) int { return (idx.J+halo)*p.stride + idx.I + halo }
