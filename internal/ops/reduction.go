package ops

import "fmt"

// Deferred reductions let reducing loops join a lazy loop chain instead of
// forcing an immediate flush: ParLoopRedDeferred enqueues the loop (under
// tiling) and hands back a Reduction whose Values finalize at the true
// synchronisation point — the moment the caller actually needs the scalar,
// e.g. an Allreduce contribution. Between enqueue and finalize the chain can
// keep growing, so the matvec→dot→axpy→precond→halo loops of consecutive CG
// iterations tile as one cache-resident chain. This is the only reduction
// engine: the eager ParLoopRed and ParLoopRedRow are deferred loops whose
// handle is read at once (ParLoopRedRow's is the context's own).
//
// Accumulation order is canonical: every reducing loop owns one partial
// accumulator per absolute row of its range, and kernel contributions to a
// row always arrive left-to-right (tiles in a row band execute in ascending
// tile-x order, and each row belongs to exactly one tile-y band because a
// loop's tile slices partition its range). Finalize folds the row partials
// in ascending row order. The result is therefore bitwise identical across
// serial untiled, tiled at any tile size, and row-sharded team execution —
// which is what lets tiled and untiled runs of a port agree to the last bit.

// Reduction is a handle to a (possibly still queued) reducing loop. It stays
// valid until it is read, however many loops run in between, and the slice
// Values returns is the caller's to keep, so a deferred reducing loop
// allocates the handle and its values (ParLoopRedRow, which reads its loop at
// once, runs on the context's own handle and allocates none). Its host
// partials live in a buffer from the
// context's free list, which gets the buffer back when the handle finalizes
// or is discarded. It is not safe for concurrent use; read it from the
// goroutine driving the context.
type Reduction struct {
	ctx  *Context
	name string
	nred int
	// part holds the host backends' per-row partials flat,
	// part[(j-baseY)*nred+v]; the device backend combines per-block partials
	// itself (runCUDA) and leaves it nil.
	part      []float64
	baseY     int
	executed  bool
	finalized bool
	discarded bool
	vals      []float64
}

// row returns absolute row j's partial slots.
func (rd *Reduction) row(j int) []float64 {
	k := (j - rd.baseY) * rd.nred
	return rd.part[k : k+rd.nred : k+rd.nred]
}

// ParLoopRedDeferred enqueues (or, untiled, executes) a reducing per-point
// kernel and returns a handle; reading the handle flushes any queued chain
// first. The returned values are bitwise independent of tiling and tile
// geometry.
func (ctx *Context) ParLoopRedDeferred(name string, b *Block, r Range, nred int, args []Arg, k Kernel) *Reduction {
	checkNred(name, nred)
	rd := new(Reduction)
	ctx.issueRed(ctx.record(name, b, r, args, nred).pointwise(k), rd, make([]float64, nred))
	return rd
}

// ParLoopRedRow is the reducing ParLoopRow, read at once: rk runs once per
// row segment, accumulating onto the row's partial slots on the host backends
// and onto the block's partials on the device backend, and the queue flushes
// through the loop, leaving the len(out) accumulated values in out. rk must
// accumulate left-to-right so the canonical per-row order — and therefore the
// bitwise tiled/untiled equivalence — is preserved. No handle reaches the
// caller, so the loop runs on the context's own and allocates nothing.
func (ctx *Context) ParLoopRedRow(name string, b *Block, r Range, out []float64, args []Arg, rk RowKernel) {
	checkNred(name, len(out))
	rec := ctx.record(name, b, r, args, len(out))
	rec.kernel = rk
	clear(out)
	ctx.issueRed(rec, &ctx.eager, out)
	ctx.eager.Values()
	ctx.eager = Reduction{}
}

func checkNred(name string, nred int) {
	if nred <= 0 {
		panic(fmt.Sprintf("ops: reducing loop %q needs nred > 0", name))
	}
}

// issueRed sets rd up as rec's handle, accumulating into the zeroed vals,
// and issues the loop. The host backends get one partial slot per row of the
// range and accumulator; the device backend has no lazy queue (tiling is
// rejected there) and sums into vals at launch.
func (ctx *Context) issueRed(rec *loopRecord, rd *Reduction, vals []float64) {
	*rd = Reduction{ctx: ctx, name: rec.name, nred: rec.nred, baseY: rec.r.YLo, vals: vals}
	if ctx.opt.Backend != BackendCUDA {
		rd.part = ctx.partials(max(rec.r.YHi-rec.r.YLo, 0) * rec.nred)
	}
	rec.red = rd
	ctx.issue(rec)
}

// partials takes a zeroed buffer of n partial slots from the free list, or
// makes one when none is large enough.
func (ctx *Context) partials(n int) []float64 {
	for k := len(ctx.parts) - 1; k >= 0; k-- {
		if buf := ctx.parts[k]; cap(buf) >= n {
			last := len(ctx.parts) - 1
			ctx.parts[k], ctx.parts[last] = ctx.parts[last], nil
			ctx.parts = ctx.parts[:last]
			buf = buf[:n]
			clear(buf)
			return buf
		}
	}
	return make([]float64, n)
}

// release hands the handle's partial buffer back to the free list.
func (rd *Reduction) release() {
	if cap(rd.part) > 0 {
		rd.ctx.parts = append(rd.ctx.parts, rd.part)
	}
	rd.part = nil
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
		for k := 0; k < len(rd.part); k += rd.nred {
			for v, x := range rd.part[k : k+rd.nred] {
				rd.vals[v] += x
			}
		}
		rd.release()
		rd.finalized = true
	}
	return rd.vals
}

// Discard drops every queued loop without executing it and invalidates
// their pending reductions. Rollback recovery calls this before restoring
// fields: the queued tail of a partially-flushed chain belongs to the
// failed step, and the replay re-issues it from scratch — flushing it into
// restored state would corrupt fields the checkpoint does not cover.
func (ctx *Context) Discard() {
	for _, rec := range ctx.queue {
		ctx.stats.Discards++
		if rd := rec.red; rd != nil {
			rd.discarded = true
			rd.release()
		}
		ctx.recycle(rec)
	}
	clear(ctx.queue)
	ctx.queue = ctx.queue[:0]
}
