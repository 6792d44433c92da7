package ops

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// loopRecord is one ParLoop captured for (possibly deferred) execution. It
// holds exactly one kernel, in the one form every backend runs: a RowKernel.
// Records belong to the context, which hands an executed (or discarded)
// record to the next launch (see record and recycle).
type loopRecord struct {
	name  string
	block *Block
	r     Range
	// args is the record's own copy of the caller's argument list.
	args   []Arg
	kernel RowKernel
	nred   int
	radius int
	// red is the reduction handle of a reducing loop (nil for plain loops).
	red *Reduction
	// point and idx are a per-point loop's Kernel and the positions of its
	// index arguments; walk, bound once when the record is made, is the
	// RowKernel that steps point along a segment.
	point Kernel
	idx   []int
	walk  RowKernel
}

// record takes a spare record (or makes one) and fills it for a launch:
// args are copied, so the caller may reuse its list once the call returns.
// The arguments are checked against the block and the range first.
func (ctx *Context) record(name string, b *Block, r Range, args []Arg, nred int) *loopRecord {
	var rec *loopRecord
	if n := len(ctx.spare); n > 0 {
		rec, ctx.spare = ctx.spare[n-1], ctx.spare[:n-1]
	} else {
		rec = &loopRecord{}
		rec.walk = rec.walkPoints
	}
	*rec = loopRecord{name: name, block: b, r: r, args: append(rec.args[:0], args...),
		nred: nred, idx: rec.idx[:0], walk: rec.walk}
	for _, a := range args {
		if a.IsIdx {
			continue
		}
		if a.Dat == nil || a.Stencil == nil {
			panic(fmt.Sprintf("ops: loop %q has a nil dat or stencil argument", name))
		}
		if a.Dat.block != b {
			panic(fmt.Sprintf("ops: loop %q argument dat %q belongs to another block", name, a.Dat.name))
		}
		// Bounds check at declaration time, like OPS's runtime checks
		// build: every stencil point applied anywhere in the range must
		// stay inside the dat's halo'd storage. Catching this here turns a
		// corrupting out-of-bounds access into a named error at the loop
		// that caused it.
		for _, pt := range a.Stencil.pts {
			d := a.Dat
			if r.XLo+pt[0] < -d.depth || r.XHi-1+pt[0] >= b.nx+d.depth ||
				r.YLo+pt[1] < -d.depth || r.YHi-1+pt[1] >= b.ny+d.depth {
				panic(fmt.Sprintf(
					"ops: loop %q range %v with stencil %q point (%d,%d) exceeds dat %q (halo %d)",
					name, r, a.Stencil.name, pt[0], pt[1], d.name, d.depth))
			}
		}
		// The dependency radius drives tiling skew: any non-zero offset an
		// argument may touch couples neighbouring cells between loops.
		rec.radius = max(rec.radius, a.Stencil.radius)
	}
	return rec
}

// recycle returns an executed or discarded record to the context. Its
// kernels and handle are dropped so a spare record holds no caller closure.
func (ctx *Context) recycle(rec *loopRecord) {
	rec.kernel, rec.point, rec.red = nil, nil, nil
	ctx.spare = append(ctx.spare, rec)
}

// RowKernel is the form every loop executes in: one call processes n
// consecutive points of one row. On entry every accessor is seated on the
// segment's first point (index arguments carry that point's I/J); the kernel
// handles the whole segment itself, typically by indexing its own field
// slices from an index argument's I/J (as the OPS port does) and running the
// bodies in internal/kern, or through Acc.Get/Set at offsets 0..n-1. A segment is a whole range row on
// the host backends, a tile slice of one under tiling and a block thread-row
// on the device backend, so a row kernel must be correct for any n >= 1 —
// called with n = 1 it is the per-point kernel. It must touch exactly the
// cells its declared stencils cover — the declaration-time bounds check and
// the tiling skew are both derived from those stencils — and reductions must
// accumulate onto red left-to-right, which is what keeps results bitwise
// independent of how rows are cut into segments.
type RowKernel func(accs []*Acc, red []float64, n int)

// pointwise makes rec a per-point loop: its kernel becomes the record's walk,
// which adapts k to the row form.
func (rec *loopRecord) pointwise(k Kernel) *loopRecord {
	rec.point, rec.kernel = k, rec.walk
	for i, a := range rec.args {
		if a.IsIdx {
			rec.idx = append(rec.idx, i)
		}
	}
	return rec
}

// walkPoints calls the per-point kernel at each point of the segment and
// steps the accessors between calls — every accessor's flat index (unused,
// and harmless, on an index argument) and the I of the index arguments only.
func (rec *loopRecord) walkPoints(accs []*Acc, red []float64, n int) {
	for ; n > 0; n-- {
		rec.point(accs, red)
		for _, a := range accs {
			a.idx++
		}
		for _, i := range rec.idx {
			accs[i].I++
		}
	}
}

// ParLoop executes (or, with tiling enabled, enqueues) a per-point kernel
// over the range, with one argument per dataset access: the loop's row form
// is the adapter that walks k along each segment.
func (ctx *Context) ParLoop(name string, b *Block, r Range, args []Arg, k Kernel) {
	ctx.issue(ctx.record(name, b, r, args, 0).pointwise(k))
}

// ParLoopRow executes (or, with tiling enabled, enqueues) a row kernel over
// the range: every backend calls rk once per row segment.
func (ctx *Context) ParLoopRow(name string, b *Block, r Range, args []Arg, rk RowKernel) {
	rec := ctx.record(name, b, r, args, 0)
	rec.kernel = rk
	ctx.issue(rec)
}

// issue queues the loop on a tiling context and runs it at once on any other,
// recycling the record as soon as it has run. A loop whose stencil radius
// spans the block (a line solve reaching along a whole row) would skew every
// later loop of its chain past the block, so it runs outside any chain: the
// queue flushes, then the loop flushes alone.
func (ctx *Context) issue(rec *loopRecord) {
	ctx.stats.LoopsEnqueued++
	if !ctx.opt.Tiling {
		ctx.executeFull(rec)
		ctx.recycle(rec)
		return
	}
	whole := rec.radius >= min(rec.block.nx, rec.block.ny)
	if whole {
		ctx.Flush()
	}
	ctx.queue = append(ctx.queue, rec)
	if whole {
		ctx.Flush()
	}
}

// ParLoopRed executes a reducing kernel over the range and returns the nred
// accumulated values. Reading them is a synchronisation point: any queued
// loops flush with it.
func (ctx *Context) ParLoopRed(name string, b *Block, r Range, nred int, args []Arg, k Kernel) []float64 {
	return ctx.ParLoopRedDeferred(name, b, r, nred, args, k).Values()
}

// executeFull runs one loop over its whole range on the context's backend.
// On the thread team shares split on whole rows and a reducing loop's row
// partial is owned by exactly one thread, so the sweep is race-free and —
// because finalize folds rows in ascending order — bitwise identical to
// serial. The team body and the device block body are bound once per
// context and read the loop from ctx.cur.
func (ctx *Context) executeFull(rec *loopRecord) {
	ctx.stats.LoopsExecuted++
	switch ctx.opt.Backend {
	case BackendSerial:
		runRange(rec, rec.r, ctx.shareAccs[0].bind(rec.args))
	case BackendOpenMP, BackendACC:
		ctx.cur = rec
		ctx.nextShare.Store(0)
		ctx.team.For(rec.r.YLo, rec.r.YHi, ctx.shareBody)
		ctx.cur = nil
	case BackendCUDA:
		ctx.runCUDA(rec)
	}
	if rec.red != nil {
		rec.red.executed = true
	}
}

// runShare is the team body of executeFull: each share claims its own
// accessor set, one per team thread, and sweeps its rows of the loop.
func (ctx *Context) runShare(j0, j1 int) {
	rec := ctx.cur
	accs := ctx.shareAccs[ctx.nextShare.Add(1)-1].bind(rec.args)
	runRange(rec, Range{rec.r.XLo, rec.r.XHi, j0, j1}, accs)
}

// accSet is one accessor set, owned by the context and re-seated on the
// dats of every launch it serves: the only allocation is growing it for a
// loop with more arguments than it has held before.
type accSet struct {
	accs []*Acc // the set as the last bind left it, one per argument
	vals []Acc
}

// bind points the set at args' working storage and returns it; seat then
// places it on each segment.
func (s *accSet) bind(args []Arg) []*Acc {
	if cap(s.vals) < len(args) {
		s.vals = make([]Acc, len(args))
		s.accs = make([]*Acc, len(args))
		for k := range s.vals {
			s.accs[k] = &s.vals[k]
		}
	}
	s.accs = s.accs[:len(args)]
	for k, a := range args {
		s.vals[k] = Acc{}
		if !a.IsIdx {
			s.vals[k] = Acc{data: a.Dat.Data(), stride: a.Dat.stride}
		}
	}
	return s.accs
}

// seat points the accessors at (i, j), the first point of a row segment.
func (rec *loopRecord) seat(accs []*Acc, i, j int) {
	for k := range rec.args {
		if a := &rec.args[k]; a.IsIdx {
			accs[k].I, accs[k].J = i, j
		} else {
			accs[k].idx = a.Dat.index(i, j)
		}
	}
}

// runRange is the one host sweep, shared by every host backend and by tiled
// execution: each row of the sub-range is one segment, seated once and
// handed whole to the loop's kernel. A reducing loop accumulates onto the
// row's own partial slots, the canonical order reductions finalize from:
// row j of a loop lives in exactly one tile-y band, and bands sweep tile-x
// ascending, so every row's contributions arrive strictly left-to-right
// regardless of tile geometry.
func runRange(rec *loopRecord, sub Range, accs []*Acc) {
	n := sub.XHi - sub.XLo
	if n <= 0 {
		return
	}
	var red []float64
	for j := sub.YLo; j < sub.YHi; j++ {
		if rd := rec.red; rd != nil {
			red = rd.row(j)
		}
		rec.seat(accs, sub.XLo, j)
		rec.kernel(accs, red, n)
	}
}

// runCUDA executes the loop as a kernel launch over the simulated device: a
// block walks its thread-rows and hands each one to the kernel as a segment.
// Reductions are per-block partials, in a buffer the context owns, combined
// in block order into the handle's values.
func (ctx *Context) runCUDA(rec *loopRecord) {
	if rec.red != nil {
		rec.red.finalized = true
	}
	w, h := rec.r.XHi-rec.r.XLo, rec.r.YHi-rec.r.YLo
	if w <= 0 || h <= 0 {
		return
	}
	grid := simgpu.GridFor(w, h, ctx.opt.Block)
	nb := grid.Mul()
	for len(ctx.blockAccs) < nb {
		ctx.blockAccs = append(ctx.blockAccs, accSet{})
	}
	if rec.red != nil {
		if cap(ctx.blockPart) < nb*rec.nred {
			ctx.blockPart = make([]float64, nb*rec.nred)
		}
		ctx.blockPart = ctx.blockPart[:nb*rec.nred]
		clear(ctx.blockPart)
	}
	ctx.cur = rec
	ctx.dev.LaunchReduceRaw(rec.name, grid, ctx.opt.Block, ctx.blockBody)
	ctx.cur = nil
	if rd := rec.red; rd != nil {
		for b := 0; b < nb; b++ {
			for i, v := range ctx.blockPart[b*rec.nred : (b+1)*rec.nred] {
				rd.vals[i] += v
			}
		}
	}
}

// runBlock is the device block body of runCUDA: the block's own accessor set
// and partial slots, its thread-rows one segment each.
func (ctx *Context) runBlock(b simgpu.Block) float64 {
	rec := ctx.cur
	slot := b.Idx.Y*b.Grid.X + b.Idx.X
	var pr []float64
	if rec.red != nil {
		pr = ctx.blockPart[slot*rec.nred : (slot+1)*rec.nred]
	}
	accs := ctx.blockAccs[slot].bind(rec.args)
	b.ForRows(rec.r.XHi-rec.r.XLo, rec.r.YHi-rec.r.YLo, func(ty, x0, x1 int) {
		rec.seat(accs, rec.r.XLo+x0, rec.r.YLo+ty)
		rec.kernel(accs, pr, x1-x0)
	})
	return 0
}
