package ops

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/par"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// loopRecord is one ParLoop captured for (possibly deferred) execution.
type loopRecord struct {
	name   string
	block  *Block
	r      Range
	args   []Arg
	kernel Kernel
	nred   int
	radius int
	// rowk, when non-nil, processes whole row segments in one call instead
	// of rec.kernel per point (a whole range row on the host backends, one
	// block thread-row on the device backend). See RowKernel.
	rowk RowKernel
	// red is the deferred-reduction handle for reducing loops enqueued via
	// ParLoopRedDeferred (nil for plain loops and the eager ParLoopRed).
	red *Reduction
}

func newRecord(name string, b *Block, r Range, args []Arg, k Kernel, nred int) *loopRecord {
	rec := &loopRecord{name: name, block: b, r: r, args: args, kernel: k, nred: nred}
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

// ParLoop executes (or, with tiling enabled, enqueues) a kernel over the
// range, with one argument per dataset access.
func (ctx *Context) ParLoop(name string, b *Block, r Range, args []Arg, k Kernel) {
	rec := newRecord(name, b, r, args, k, 0)
	ctx.stats.LoopsEnqueued++
	if ctx.opt.Tiling {
		ctx.queue = append(ctx.queue, rec)
		return
	}
	ctx.executeFull(rec, nil)
}

// RowKernel processes n consecutive points of one row in a single call.
// On entry every accessor is seated on the segment's first point (index
// arguments carry that point's I/J); the kernel handles the whole segment
// itself, typically through Acc.Row sub-slices and the unrolled bodies in
// internal/kern. A row kernel must touch exactly the cells its declared
// stencils cover — the declaration-time bounds check and the tiling skew
// are both derived from those stencils — and reductions must accumulate
// onto red left-to-right so results stay bitwise identical to the
// per-point kernel.
type RowKernel func(accs []*Acc, red []float64, n int)

// ParLoopRow is ParLoop with a row-segment fast path: every backend calls rk
// once per row segment instead of k per point (the device backend's segments
// are its blocks' thread-rows); k remains the definition rk is tested
// against. Both kernels must compute identical results.
func (ctx *Context) ParLoopRow(name string, b *Block, r Range, args []Arg, k Kernel, rk RowKernel) {
	rec := newRecord(name, b, r, args, k, 0)
	rec.rowk = rk
	ctx.stats.LoopsEnqueued++
	if ctx.opt.Tiling {
		ctx.queue = append(ctx.queue, rec)
		return
	}
	ctx.executeFull(rec, nil)
}

// ParLoopRed executes a reducing kernel over the range and returns the nred
// accumulated values. Reductions are synchronisation points: any queued
// loops flush first, and the reducing loop itself runs untiled.
func (ctx *Context) ParLoopRed(name string, b *Block, r Range, nred int, args []Arg, k Kernel) []float64 {
	if nred <= 0 {
		panic(fmt.Sprintf("ops: reducing loop %q needs nred > 0", name))
	}
	ctx.Flush()
	rec := newRecord(name, b, r, args, k, nred)
	ctx.stats.LoopsEnqueued++
	red := make([]float64, nred)
	ctx.executeFull(rec, red)
	return red
}

// executeFull runs one loop over its whole range on the context's backend.
func (ctx *Context) executeFull(rec *loopRecord, red []float64) {
	ctx.stats.LoopsExecuted++
	switch ctx.opt.Backend {
	case BackendSerial:
		runRange(rec, rec.r, red)
	case BackendOpenMP, BackendACC:
		ctx.runTeam(rec, red)
	case BackendCUDA:
		ctx.runCUDA(rec, red)
	}
}

// makeAccs builds the accessor set for one loop; tiled flushes reuse it
// across every tile slice of the loop instead of reallocating per tile.
func makeAccs(rec *loopRecord) []*Acc {
	accs := make([]*Acc, len(rec.args))
	for k, a := range rec.args {
		if a.IsIdx {
			accs[k] = &Acc{}
			continue
		}
		accs[k] = &Acc{data: a.Dat.raw(), stride: a.Dat.stride}
	}
	return accs
}

// runRange is the scalar execution engine shared by every host backend (and
// by tiled execution): a row-major sweep of the sub-range with
// pointer-bumped accessors.
func runRange(rec *loopRecord, sub Range, red []float64) {
	if sub.XHi <= sub.XLo || sub.YHi <= sub.YLo {
		return
	}
	accs := makeAccs(rec)
	runRangePlanned(rec, sub, red, accs, makePlan(rec, accs))
}

// accPlan splits one loop's accessors by kind so the per-point sweep never
// branches on IsIdx or copies Arg structs — both showed up hot in profiles
// of the CG chain. The plan is valid for any sub-range executed with the
// same accessor set (tiled flushes build it once per loop, not per tile).
type accPlan struct {
	idx  []*Acc // index arguments: need I/J refreshed per point/row
	dat  []*Acc // dataset arguments: pointer-bumped along each row
	dats []*Dat // dats backing plan.dat, for the per-row base index
}

func makePlan(rec *loopRecord, accs []*Acc) accPlan {
	var p accPlan
	for k, a := range rec.args {
		if a.IsIdx {
			p.idx = append(p.idx, accs[k])
			continue
		}
		p.dat = append(p.dat, accs[k])
		p.dats = append(p.dats, a.Dat)
	}
	return p
}

// runRangeAccs is runRange with a caller-owned accessor set.
func runRangeAccs(rec *loopRecord, sub Range, red []float64, accs []*Acc) {
	runRangePlanned(rec, sub, red, accs, makePlan(rec, accs))
}

// runRangePlanned is the innermost sweep: per row it seats each dataset
// accessor once, then either hands the whole segment to the loop's row
// kernel or bumps the accessors point-by-point between per-point calls.
func runRangePlanned(rec *loopRecord, sub Range, red []float64, accs []*Acc, plan accPlan) {
	if sub.XHi <= sub.XLo || sub.YHi <= sub.YLo {
		return
	}
	if rowk := rec.rowk; rowk != nil {
		n := sub.XHi - sub.XLo
		for j := sub.YLo; j < sub.YHi; j++ {
			for _, a := range plan.idx {
				a.I, a.J = sub.XLo, j
			}
			for k, a := range plan.dat {
				a.idx = plan.dats[k].index(sub.XLo, j)
			}
			rowk(accs, red, n)
		}
		return
	}
	kernel := rec.kernel
	for j := sub.YLo; j < sub.YHi; j++ {
		for _, a := range plan.idx {
			a.J = j
		}
		for k, a := range plan.dat {
			a.idx = plan.dats[k].index(sub.XLo, j)
		}
		if len(plan.idx) == 0 {
			for i := sub.XLo; i < sub.XHi; i++ {
				kernel(accs, red)
				for _, a := range plan.dat {
					a.idx++
				}
			}
			continue
		}
		for i := sub.XLo; i < sub.XHi; i++ {
			for _, a := range plan.idx {
				a.I = i
			}
			kernel(accs, red)
			for _, a := range plan.dat {
				a.idx++
			}
		}
	}
}

// runRangeRows executes a reducing loop's sub-range accumulating into
// per-row partial slots (rows[j-baseY]); the canonical order deferred
// reductions finalize from. Row j of a loop lives in exactly one tile-y
// band, and bands sweep tile-x ascending, so every row's contributions
// arrive strictly left-to-right regardless of tile geometry.
func runRangeRows(rec *loopRecord, sub Range, rows [][]float64, baseY int, accs []*Acc) {
	runRangeRowsPlanned(rec, sub, rows, baseY, accs, makePlan(rec, accs))
}

// runRangeRowsPlanned is runRangeRows with a caller-owned plan, for tiled
// flushes that sweep one loop across many tiles.
func runRangeRowsPlanned(rec *loopRecord, sub Range, rows [][]float64, baseY int, accs []*Acc, plan accPlan) {
	if sub.XHi <= sub.XLo || sub.YHi <= sub.YLo {
		return
	}
	for j := sub.YLo; j < sub.YHi; j++ {
		runRangePlanned(rec, Range{sub.XLo, sub.XHi, j, j + 1}, rows[j-baseY], accs, plan)
	}
}

// runTeam executes the loop on the thread team, rows statically scheduled,
// reduction partials combined in thread order. One- and two-value
// reductions (every TeaLeaf kernel) ride the team's padded zero-alloc
// reduction slots; wider reductions fall back to explicit per-thread
// partials.
func (ctx *Context) runTeam(rec *loopRecord, red []float64) {
	if red == nil {
		ctx.team.For(rec.r.YLo, rec.r.YHi, func(j0, j1 int) {
			runRange(rec, Range{rec.r.XLo, rec.r.XHi, j0, j1}, nil)
		})
		return
	}
	switch len(red) {
	case 1:
		red[0] += ctx.team.ReduceSum(rec.r.YLo, rec.r.YHi, func(j0, j1 int) float64 {
			var pr [1]float64
			runRange(rec, Range{rec.r.XLo, rec.r.XHi, j0, j1}, pr[:])
			return pr[0]
		})
	case 2:
		a, b := ctx.team.ReduceSum2(rec.r.YLo, rec.r.YHi, func(j0, j1 int) (float64, float64) {
			var pr [2]float64
			runRange(rec, Range{rec.r.XLo, rec.r.XHi, j0, j1}, pr[:])
			return pr[0], pr[1]
		})
		red[0] += a
		red[1] += b
	default:
		nth := ctx.team.NumThreads()
		partials := make([][]float64, nth)
		ctx.team.Parallel(func(thread int) {
			j0, j1 := par.StaticRange(rec.r.YLo, rec.r.YHi, thread, nth)
			if j0 >= j1 {
				return
			}
			pr := make([]float64, len(red))
			runRange(rec, Range{rec.r.XLo, rec.r.XHi, j0, j1}, pr)
			partials[thread] = pr
		})
		for _, pr := range partials {
			for i, v := range pr {
				red[i] += v
			}
		}
	}
}

// runCUDA executes the loop as a kernel launch over the simulated device;
// reductions are per-block partials combined in block order. A block walks
// its thread-rows: a loop with a row kernel hands each one to it whole, any
// other runs the per-point kernel along it, left to right either way.
func (ctx *Context) runCUDA(rec *loopRecord, red []float64) {
	w := rec.r.XHi - rec.r.XLo
	h := rec.r.YHi - rec.r.YLo
	if w <= 0 || h <= 0 {
		return
	}
	grid := simgpu.GridFor(w, h, ctx.opt.Block)
	body := func(b simgpu.Block, pr []float64) {
		accs := makeAccs(rec)
		seat := func(i, j int) {
			for k, a := range rec.args {
				if a.IsIdx {
					accs[k].I, accs[k].J = i, j
					continue
				}
				accs[k].idx = a.Dat.index(i, j)
			}
		}
		b.ForRows(w, h, func(ty, x0, x1 int) {
			i, j := rec.r.XLo+x0, rec.r.YLo+ty
			if rec.rowk != nil {
				seat(i, j)
				rec.rowk(accs, pr, x1-x0)
				return
			}
			for ; i < rec.r.XLo+x1; i++ {
				seat(i, j)
				rec.kernel(accs, pr)
			}
		})
	}
	if red == nil {
		ctx.dev.LaunchRaw(rec.name, grid, ctx.opt.Block, func(b simgpu.Block) { body(b, nil) })
		return
	}
	partials := make([][]float64, grid.Mul())
	ctx.dev.LaunchRaw(rec.name, grid, ctx.opt.Block, func(b simgpu.Block) {
		pr := make([]float64, len(red))
		body(b, pr)
		partials[b.Idx.Y*b.Grid.X+b.Idx.X] = pr
	})
	for _, pr := range partials {
		for i, v := range pr {
			red[i] += v
		}
	}
}
