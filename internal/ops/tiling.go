package ops

import "github.com/warwick-hpsc/tealeaf-go/internal/par"

// Lazy execution with skewed cache-block tiling, the OPS optimisation of
// Reguly et al. ("Loop Tiling in Large-Scale Stencil Codes at Run-time with
// OPS"): ParLoops are queued instead of executed, and at a synchronisation
// point the whole chain runs tile by tile, each loop's slice of a tile
// shifted ("skewed") by the accumulated stencil radius of the loops before
// it. Executing a chain of sweeps over one cache-sized tile at a time keeps
// the tile resident across the chain, trading the memory traffic of N full
// sweeps for roughly one.
//
// Correctness of the skew: loop l's slice of tile t covers
// x in [t*T - S_l, (t+1)*T - S_l) with S_l = S_(l-1) + r_l + r_(l-1),
// where r_l is loop l's stencil radius. Tiles execute in ascending
// row-major order and loops in program order within a tile. For a flow
// dependence (loop b reads what earlier loop a wrote), b's furthest read in
// tile t reaches (t+1)*T - S_b - 1 + r_b <= (t+1)*T - S_a - 1, already
// produced by a in tiles <= t. For an anti dependence (loop b overwrites
// what earlier loop a still reads in later tiles), a's reads from tiles
// > t start at (t+1)*T - S_a - r_a, strictly beyond b's writes through tile
// t, which end by (t+1)*T - S_b - 1 + r_b <= (t+1)*T - S_a - r_a - 1.
// Including both radii in each skew increment covers both directions for
// any pair of loops in the chain. Each loop's slices partition its range,
// so every point runs exactly once.

// Flush executes all queued loops. It is called automatically at
// reductions and context close; ports call it before halo exchanges and
// host reads of dats.
//
// Reducing loops (enqueued via ParLoopRedDeferred) ride the chain like any
// other loop: the skew needs no extension for them because a reduction
// reads its arguments through ordinary stencils (its radius already
// contributes to the shifts) and writes only its private per-row partial
// slots, which no other loop can observe — there is no dat-carried
// dependence out of a reduction node until its handle finalizes, and
// finalizing triggers this very Flush first. Single-chunk halo updates are
// plain boundary ParLoops whose mirror stencils contribute their offsets to
// the skew the same way, so a queued halo node needs no barrier either.
func (ctx *Context) Flush() {
	if len(ctx.queue) == 0 {
		return
	}
	loops := ctx.queue
	ctx.queue = nil
	ctx.stats.Flushes++
	if n := int64(len(loops)); n > 1 {
		ctx.stats.Chains++
		ctx.stats.ChainedLoops += n
		if n > ctx.stats.MaxChainLen {
			ctx.stats.MaxChainLen = n
		}
	}
	if len(loops) == 1 {
		ctx.executeFull(loops[0])
	} else {
		ctx.runChain(loops)
	}
	for _, rec := range loops {
		ctx.recycle(rec)
	}
	clear(loops)
	ctx.queue = loops[:0]
}

// runChain executes two or more queued loops tile by tile, each with its own
// accessor set from the context's chain sets.
func (ctx *Context) runChain(loops []*loopRecord) {
	ctx.resolveAutoTile(loops)
	// Cumulative skew per loop; each increment covers flow and anti
	// dependences between every earlier/later loop pair (see the package
	// comment above).
	shift := append(ctx.shift[:0], 0)
	for l := 1; l < len(loops); l++ {
		shift = append(shift, shift[l-1]+loops[l].radius+loops[l-1].radius)
	}
	ctx.shift = shift
	for len(ctx.chainAccs) < len(loops) {
		ctx.chainAccs = append(ctx.chainAccs, accSet{})
	}
	for l, rec := range loops {
		ctx.chainAccs[l].bind(rec.args)
	}
	// Tile-index bounds over the skewed coordinates of all loops.
	tx0, tx1 := tileBounds(loops, shift, ctx.opt.TileX, func(r Range) (int, int) { return r.XLo, r.XHi })
	ty0, ty1 := tileBounds(loops, shift, ctx.opt.TileY, func(r Range) (int, int) { return r.YLo, r.YHi })
	for ty := ty0; ty <= ty1; ty++ {
		for tx := tx0; tx <= tx1; tx++ {
			ran := false
			for l, rec := range loops {
				sub := Range{
					XLo: max(rec.r.XLo, tx*ctx.opt.TileX-shift[l]),
					XHi: min(rec.r.XHi, (tx+1)*ctx.opt.TileX-shift[l]),
					YLo: max(rec.r.YLo, ty*ctx.opt.TileY-shift[l]),
					YHi: min(rec.r.YHi, (ty+1)*ctx.opt.TileY-shift[l]),
				}
				if sub.XLo < sub.XHi && sub.YLo < sub.YHi {
					runRange(rec, sub, ctx.chainAccs[l].accs)
					ran = true
				}
			}
			if ran {
				ctx.stats.Tiles++
			}
		}
	}
	for _, rec := range loops {
		if rec.red != nil {
			rec.red.executed = true
		}
		ctx.stats.LoopsExecuted++
	}
}

// resolveAutoTile picks TileX/TileY once, from the detected cache topology
// and the first chain's working set: the tile slab every loop of the chain
// touches should stay resident in (about half of) the private L2 while the
// chain sweeps it.
func (ctx *Context) resolveAutoTile(loops []*loopRecord) {
	if ctx.tileResolved {
		return
	}
	ctx.tileResolved = true
	dats := map[*Dat]bool{}
	nx, ny := 0, 0
	for _, rec := range loops {
		nx, ny = rec.block.nx, rec.block.ny
		for _, a := range rec.args {
			if a.Dat != nil {
				dats[a.Dat] = true
			}
		}
	}
	bytesPerCell := 8 * len(dats)
	if bytesPerCell <= 0 {
		bytesPerCell = 8
	}
	tx, ty := par.DetectTopology().AutoTile(nx, ny, bytesPerCell)
	ctx.opt.TileX, ctx.opt.TileY = tx, ty
	if ctx.team != nil {
		ctx.team.SetShareAlign(shareAlignFor(ty))
	}
}

// tileBounds returns the inclusive tile-index range covering every loop's
// skewed extent along one dimension.
func tileBounds(loops []*loopRecord, shift []int, tile int, dim func(Range) (int, int)) (int, int) {
	first := true
	var t0, t1 int
	for l, rec := range loops {
		lo, hi := dim(rec.r)
		if hi <= lo {
			continue
		}
		a := floorDiv(lo+shift[l], tile)
		b := floorDiv(hi-1+shift[l], tile)
		if first {
			t0, t1, first = a, b, false
			continue
		}
		t0 = min(t0, a)
		t1 = max(t1, b)
	}
	return t0, t1
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
