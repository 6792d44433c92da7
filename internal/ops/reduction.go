package ops

import "fmt"

// Deferred reductions let reducing loops join a lazy loop chain instead of
// forcing an immediate flush: ParLoopRedDeferred enqueues the loop (under
// tiling) and hands back a Reduction whose Value/Values finalize at the true
// synchronisation point — the moment the caller actually needs the scalar,
// e.g. an Allreduce contribution. Between enqueue and finalize the chain can
// keep growing, so the matvec→dot→axpy→precond→halo loops of consecutive CG
// iterations tile as one cache-resident chain.
//
// Accumulation order is canonical: every reducing loop owns one partial
// accumulator per absolute row of its range, and kernel contributions to a
// row always arrive left-to-right (tiles in a row band execute in ascending
// tile-x order, and each row belongs to exactly one tile-y band because a
// loop's tile slices partition its range). Finalize folds the row partials
// in ascending row order. The result is therefore bitwise identical across
// serial untiled, tiled at any tile size, and row-sharded team execution —
// which is what lets tiled and untiled runs of a port agree to the last bit.

// Reduction is a handle to a (possibly still queued) reducing loop. It is
// not safe for concurrent use; read it from the goroutine driving the
// context.
type Reduction struct {
	ctx  *Context
	rec  *loopRecord
	name string
	// rows holds per-row partials, rows[j-baseY][v]; one backing array.
	rows      [][]float64
	baseY     int
	executed  bool
	finalized bool
	discarded bool
	vals      []float64
}

// newReduction allocates the per-row partial slots for rec.
func newReduction(ctx *Context, rec *loopRecord) *Reduction {
	nrows := rec.r.YHi - rec.r.YLo
	if nrows < 0 {
		nrows = 0
	}
	backing := make([]float64, nrows*rec.nred)
	rows := make([][]float64, nrows)
	for j := range rows {
		rows[j] = backing[j*rec.nred : (j+1)*rec.nred]
	}
	return &Reduction{ctx: ctx, rec: rec, name: rec.name, rows: rows, baseY: rec.r.YLo}
}

// ParLoopRedDeferred enqueues (or, untiled, executes) a reducing kernel and
// returns a handle; reading the handle flushes any queued chain first. The
// returned values are bitwise independent of tiling and tile geometry.
func (ctx *Context) ParLoopRedDeferred(name string, b *Block, r Range, nred int, args []Arg, k Kernel) *Reduction {
	return ctx.parLoopRedDeferred(name, b, r, nred, args, k, nil)
}

// ParLoopRedDeferredRow is ParLoopRedDeferred with a row-segment fast path:
// rk runs once per row segment instead of k per point, accumulating onto the
// row's partial slot on the host backends and onto the block's partial on
// the device backend.
// rk must accumulate left-to-right so the canonical per-row order — and
// therefore the bitwise tiled/untiled equivalence — is preserved.
func (ctx *Context) ParLoopRedDeferredRow(name string, b *Block, r Range, nred int, args []Arg, k Kernel, rk RowKernel) *Reduction {
	return ctx.parLoopRedDeferred(name, b, r, nred, args, k, rk)
}

func (ctx *Context) parLoopRedDeferred(name string, b *Block, r Range, nred int, args []Arg, k Kernel, rk RowKernel) *Reduction {
	if nred <= 0 {
		panic(fmt.Sprintf("ops: reducing loop %q needs nred > 0", name))
	}
	rec := newRecord(name, b, r, args, k, nred)
	rec.rowk = rk
	ctx.stats.LoopsEnqueued++
	if ctx.opt.Backend == BackendCUDA {
		// No lazy queue on the device backend (tiling is rejected there):
		// run eagerly with the block-ordered combine runCUDA already has.
		rd := &Reduction{ctx: ctx, rec: rec, name: name, vals: make([]float64, nred)}
		ctx.executeFull(rec, rd.vals)
		rd.executed, rd.finalized = true, true
		return rd
	}
	rd := newReduction(ctx, rec)
	rec.red = rd
	if ctx.opt.Tiling {
		ctx.queue = append(ctx.queue, rec)
		return rd
	}
	ctx.executeDeferredFull(rec)
	return rd
}

// executeDeferredFull runs a deferred reducing loop over its whole range
// into its per-row partials, on the context's host backend.
func (ctx *Context) executeDeferredFull(rec *loopRecord) {
	ctx.stats.LoopsExecuted++
	rd := rec.red
	switch ctx.opt.Backend {
	case BackendSerial:
		runRangeRows(rec, rec.r, rd.rows, rd.baseY, makeAccs(rec))
	case BackendOpenMP, BackendACC:
		// Shares split on whole rows and each row partial is owned by
		// exactly one thread, so this is race-free and — because finalize
		// folds rows in ascending order — bitwise identical to serial.
		ctx.team.For(rec.r.YLo, rec.r.YHi, func(j0, j1 int) {
			runRangeRows(rec, Range{rec.r.XLo, rec.r.XHi, j0, j1}, rd.rows, rd.baseY, makeAccs(rec))
		})
	default:
		panic(fmt.Sprintf("ops: deferred reduction %q on unsupported backend %v", rec.name, ctx.opt.Backend))
	}
	rd.executed = true
}

// Values flushes any pending chain, finalizes and returns the reduction's
// accumulated values (length nred). Reading a handle whose loop was dropped
// by Discard panics: the rollback that discarded it must replay the whole
// step, never consume a half-computed scalar.
func (rd *Reduction) Values() []float64 {
	if rd.discarded {
		panic(fmt.Sprintf("ops: reduction %q was discarded by a rollback; its value is gone", rd.name))
	}
	if !rd.executed {
		rd.ctx.Flush()
		if !rd.executed {
			panic(fmt.Sprintf("ops: reduction %q did not execute at flush (context confusion?)", rd.name))
		}
	}
	if !rd.finalized {
		vals := make([]float64, rd.rec.nred)
		for _, row := range rd.rows {
			for v, x := range row {
				vals[v] += x
			}
		}
		rd.vals = vals
		rd.rows = nil
		rd.finalized = true
	}
	return rd.vals
}

// Value is Values()[0], for the single-accumulator loops every TeaLeaf dot
// product uses.
func (rd *Reduction) Value() float64 { return rd.Values()[0] }

// Discard drops every queued loop without executing it and invalidates
// their pending reductions. Rollback recovery calls this before restoring
// fields: the queued tail of a partially-flushed chain belongs to the
// failed step, and the replay re-issues it from scratch — flushing it into
// restored state would corrupt fields the checkpoint does not cover.
func (ctx *Context) Discard() {
	for _, rec := range ctx.queue {
		ctx.stats.Discards++
		if rec.red != nil {
			rec.red.discarded = true
		}
	}
	ctx.queue = nil
}
