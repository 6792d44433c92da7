package ops

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// loopRecord is one ParLoop captured for (possibly deferred) execution. It
// holds exactly one kernel, in the one form every backend runs: a RowKernel.
type loopRecord struct {
	name   string
	block  *Block
	r      Range
	args   []Arg
	kernel RowKernel
	nred   int
	radius int
	// red is the reduction handle of a reducing loop (nil for plain loops):
	// per-row partial slots on the host backends, the block-ordered total on
	// the device backend.
	red *Reduction
}

func newRecord(name string, b *Block, r Range, args []Arg, rk RowKernel, nred int) *loopRecord {
	rec := &loopRecord{name: name, block: b, r: r, args: args, kernel: rk, nred: nred}
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

// pointwise adapts a per-point Kernel to the row form: it calls k at each
// point of the segment and steps the accessors between calls — every
// accessor's flat index (unused, and harmless, on an index argument) and the
// I of the index arguments only.
func pointwise(k Kernel, args []Arg) RowKernel {
	var idx []int
	for i, a := range args {
		if a.IsIdx {
			idx = append(idx, i)
		}
	}
	return func(accs []*Acc, red []float64, n int) {
		for ; n > 0; n-- {
			k(accs, red)
			for _, a := range accs {
				a.idx++
			}
			for _, i := range idx {
				accs[i].I++
			}
		}
	}
}

// ParLoop executes (or, with tiling enabled, enqueues) a per-point kernel
// over the range, with one argument per dataset access: ParLoopRow around
// the adapter that walks k along each segment.
func (ctx *Context) ParLoop(name string, b *Block, r Range, args []Arg, k Kernel) {
	ctx.ParLoopRow(name, b, r, args, pointwise(k, args))
}

// ParLoopRow executes (or, with tiling enabled, enqueues) a row kernel over
// the range: every backend calls rk once per row segment.
func (ctx *Context) ParLoopRow(name string, b *Block, r Range, args []Arg, rk RowKernel) {
	ctx.issue(newRecord(name, b, r, args, rk, 0))
}

// issue queues the loop on a tiling context and runs it at once on any other.
// A loop whose stencil radius spans the block (a line solve reaching along a
// whole row) would skew every later loop of its chain past the block, so it
// runs outside any chain: the queue flushes, then the loop flushes alone.
func (ctx *Context) issue(rec *loopRecord) {
	ctx.stats.LoopsEnqueued++
	if !ctx.opt.Tiling {
		ctx.executeFull(rec)
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
// serial.
func (ctx *Context) executeFull(rec *loopRecord) {
	ctx.stats.LoopsExecuted++
	switch ctx.opt.Backend {
	case BackendSerial:
		runRange(rec, rec.r, makeAccs(rec))
	case BackendOpenMP, BackendACC:
		ctx.team.For(rec.r.YLo, rec.r.YHi, func(j0, j1 int) {
			runRange(rec, Range{rec.r.XLo, rec.r.XHi, j0, j1}, makeAccs(rec))
		})
	case BackendCUDA:
		ctx.runCUDA(rec)
	}
	if rec.red != nil {
		rec.red.executed = true
	}
}

// makeAccs builds the accessor set for one loop, in two allocations; tiled
// flushes reuse it across every tile slice of the loop instead of
// reallocating per tile.
func makeAccs(rec *loopRecord) []*Acc {
	accs, vals := make([]*Acc, len(rec.args)), make([]Acc, len(rec.args))
	for k, a := range rec.args {
		if !a.IsIdx {
			vals[k] = Acc{data: a.Dat.Data(), stride: a.Dat.stride}
		}
		accs[k] = &vals[k]
	}
	return accs
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
// row's own partial slot, the canonical order reductions finalize from:
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
			red = rd.rows[j-rd.baseY]
		}
		rec.seat(accs, sub.XLo, j)
		rec.kernel(accs, red, n)
	}
}

// runCUDA executes the loop as a kernel launch over the simulated device: a
// block walks its thread-rows and hands each one to the kernel as a segment.
// Reductions are per-block partials combined in block order.
func (ctx *Context) runCUDA(rec *loopRecord) {
	if rec.red != nil {
		rec.red.vals, rec.red.finalized = make([]float64, rec.nred), true
	}
	w, h := rec.r.XHi-rec.r.XLo, rec.r.YHi-rec.r.YLo
	if w <= 0 || h <= 0 {
		return
	}
	grid := simgpu.GridFor(w, h, ctx.opt.Block)
	var partials [][]float64
	if rec.red != nil {
		partials = make([][]float64, grid.Mul())
	}
	ctx.dev.LaunchRaw(rec.name, grid, ctx.opt.Block, func(b simgpu.Block) {
		var pr []float64
		if partials != nil {
			pr = make([]float64, rec.nred)
			partials[b.Idx.Y*b.Grid.X+b.Idx.X] = pr
		}
		accs := makeAccs(rec)
		b.ForRows(w, h, func(ty, x0, x1 int) {
			rec.seat(accs, rec.r.XLo+x0, rec.r.YLo+ty)
			rec.kernel(accs, pr, x1-x0)
		})
	})
	for _, pr := range partials {
		for i, v := range pr {
			rec.red.vals[i] += v
		}
	}
}
