package ops

import "fmt"

// Deferred reductions let reducing loops join a lazy loop chain instead of
// forcing an immediate flush: ParLoopRedDeferred enqueues the loop (under
// tiling) and hands back a Reduction whose Value/Values finalize at the true
// synchronisation point — the moment the caller actually needs the scalar,
// e.g. an Allreduce contribution. Between enqueue and finalize the chain can
// keep growing, so the matvec→dot→axpy→precond→halo loops of consecutive CG
// iterations tile as one cache-resident chain. This is the only reduction
// engine: the eager ParLoopRed is a deferred loop whose handle is read at once.
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

// newReduction creates rec's handle. The host backends get one partial slot
// per row of the range; the device backend has no lazy queue (tiling is
// rejected there) and combines per-block partials itself (runCUDA).
func newReduction(ctx *Context, rec *loopRecord) *Reduction {
	rd := &Reduction{ctx: ctx, rec: rec, name: rec.name, baseY: rec.r.YLo}
	if ctx.opt.Backend == BackendCUDA {
		return rd
	}
	nrows := max(rec.r.YHi-rec.r.YLo, 0)
	backing := make([]float64, nrows*rec.nred)
	rd.rows = make([][]float64, nrows)
	for j := range rd.rows {
		rd.rows[j] = backing[j*rec.nred : (j+1)*rec.nred]
	}
	return rd
}

// ParLoopRedDeferred enqueues (or, untiled, executes) a reducing per-point
// kernel and returns a handle; reading the handle flushes any queued chain
// first. The returned values are bitwise independent of tiling and tile
// geometry.
func (ctx *Context) ParLoopRedDeferred(name string, b *Block, r Range, nred int, args []Arg, k Kernel) *Reduction {
	return ctx.ParLoopRedDeferredRow(name, b, r, nred, args, pointwise(k, args))
}

// ParLoopRedDeferredRow is the reducing ParLoopRow: rk runs once per row
// segment, accumulating onto the row's partial slot on the host backends and
// onto the block's partial on the device backend. rk must accumulate
// left-to-right so the canonical per-row order — and therefore the bitwise
// tiled/untiled equivalence — is preserved.
func (ctx *Context) ParLoopRedDeferredRow(name string, b *Block, r Range, nred int, args []Arg, rk RowKernel) *Reduction {
	if nred <= 0 {
		panic(fmt.Sprintf("ops: reducing loop %q needs nred > 0", name))
	}
	rec := newRecord(name, b, r, args, rk, nred)
	rec.red = newReduction(ctx, rec)
	ctx.issue(rec)
	return rec.red
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
