package ops

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

func mustCtx(t *testing.T, opt Options) *Context {
	t.Helper()
	ctx, err := NewContext(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	return ctx
}

func TestParLoopWritesRange(t *testing.T) {
	ctx := mustCtx(t, Options{Backend: BackendSerial})
	b := ctx.DeclBlock("grid", 8, 6)
	d := b.DeclDat("d", 2)
	ctx.ParLoop("fill", b, Range{-1, 9, -1, 7}, []Arg{ArgDat(d, S2D00, Write)},
		func(a []*Acc, _ []float64) { a[0].Set(0, 0, 42) })
	for j := -2; j < 8; j++ {
		for i := -2; i < 10; i++ {
			want := 0.0
			if i >= -1 && i < 9 && j >= -1 && j < 7 {
				want = 42
			}
			if got := at(d, i, j); got != want {
				t.Fatalf("d(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestStencilAccess(t *testing.T) {
	ctx := mustCtx(t, Options{Backend: BackendSerial})
	b := ctx.DeclBlock("grid", 5, 5)
	src := b.DeclDat("src", 2)
	dst := b.DeclDat("dst", 2)
	for j := -2; j < 7; j++ {
		for i := -2; i < 7; i++ {
			src.Set(i, j, float64(100*i+j))
		}
	}
	ctx.ParLoop("laplace", b, Range{0, 5, 0, 5},
		[]Arg{ArgDat(src, S2D5pt, Read), ArgDat(dst, S2D00, Write)},
		func(a []*Acc, _ []float64) {
			a[1].Set(0, 0, a[0].Get(1, 0)+a[0].Get(-1, 0)+a[0].Get(0, 1)+a[0].Get(0, -1)-4*a[0].Get(0, 0))
		})
	// Interior of a linear field: Laplacian is zero.
	for j := 0; j < 5; j++ {
		for i := 0; i < 5; i++ {
			if got := at(dst, i, j); got != 0 {
				t.Fatalf("laplacian(%d,%d) = %g, want 0", i, j, got)
			}
		}
	}
}

func TestReduction(t *testing.T) {
	for _, be := range []Backend{BackendSerial, BackendOpenMP, BackendACC, BackendCUDA} {
		be := be
		t.Run(be.String(), func(t *testing.T) {
			ctx := mustCtx(t, Options{Backend: be, Threads: 3})
			b := ctx.DeclBlock("grid", 10, 9)
			d := b.DeclDat("d", 1)
			for j := 0; j < 9; j++ {
				for i := 0; i < 10; i++ {
					d.Set(i, j, 1)
				}
			}
			d.Upload()
			red := ctx.ParLoopRed("count", b, Range{0, 10, 0, 9}, 2,
				[]Arg{ArgDat(d, S2D00, Read)},
				func(a []*Acc, red []float64) {
					red[0] += a[0].Get(0, 0)
					red[1] += 2 * a[0].Get(0, 0)
				})
			if red[0] != 90 || red[1] != 180 {
				t.Errorf("reduction = %v, want [90 180]", red)
			}
		})
	}
}

// chainOnContext runs a fixed multi-loop stencil chain (smoothing sweeps
// ping-ponging between two dats plus an axpy) and returns a checksum dat.
func chainOnContext(ctx *Context, nx, ny, sweeps int) []float64 {
	b := ctx.DeclBlock("grid", nx, ny)
	a := b.DeclDat("a", 2)
	c := b.DeclDat("c", 2)
	acc := b.DeclDat("acc", 2)
	for j := -2; j < ny+2; j++ {
		for i := -2; i < nx+2; i++ {
			a.Set(i, j, float64((i*7+j*13)%11)+0.25)
		}
	}
	a.Upload()
	c.Upload()
	acc.Upload()
	interior := Range{0, nx, 0, ny}
	src, dst := a, c
	for s := 0; s < sweeps; s++ {
		ctx.ParLoop(fmt.Sprintf("smooth%d", s), b, Range{1, nx - 1, 1, ny - 1},
			[]Arg{ArgDat(src, S2D5pt, Read), ArgDat(dst, S2D00, Write)},
			func(a []*Acc, _ []float64) {
				a[1].Set(0, 0, 0.2*(a[0].Get(0, 0)+a[0].Get(1, 0)+a[0].Get(-1, 0)+a[0].Get(0, 1)+a[0].Get(0, -1)))
			})
		ctx.ParLoop(fmt.Sprintf("accum%d", s), b, interior,
			[]Arg{ArgDat(dst, S2D00, Read), ArgDat(acc, S2D00, RW)},
			func(a []*Acc, _ []float64) { a[1].Set(0, 0, a[1].Get(0, 0)+a[0].Get(0, 0)) })
		src, dst = dst, src
	}
	ctx.Flush()
	acc.Download()
	out := make([]float64, 0, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			out = append(out, at(acc, i, j))
		}
	}
	return out
}

// TestBackendsAgreeOnChain: every backend must produce bitwise-identical
// non-reduced results for the same loop chain.
func TestBackendsAgreeOnChain(t *testing.T) {
	ref := chainOnContext(mustCtx(t, Options{Backend: BackendSerial}), 24, 17, 5)
	for _, opt := range []Options{
		{Backend: BackendOpenMP, Threads: 4},
		{Backend: BackendACC, Threads: 3},
		{Backend: BackendCUDA, Block: simgpu.Dim2{X: 8, Y: 4}},
		{Backend: BackendSerial, Tiling: true, TileX: 8, TileY: 8},
		{Backend: BackendSerial, Tiling: true, TileX: 5, TileY: 3},
	} {
		opt := opt
		name := opt.Backend.String()
		if opt.Tiling {
			name = fmt.Sprintf("tiled_%dx%d", opt.TileX, opt.TileY)
		}
		t.Run(name, func(t *testing.T) {
			got := chainOnContext(mustCtx(t, opt), 24, 17, 5)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("cell %d: got %g want %g", i, got[i], ref[i])
				}
			}
		})
	}
}

// TestTilingPropertyRandomChains: quick-check that tiled execution of a
// random chain of radius-0 and radius-1 loops over random ranges is
// bitwise identical to immediate execution.
func TestTilingPropertyRandomChains(t *testing.T) {
	run := func(seed int64, tiled bool) []float64 {
		rng := rand.New(rand.NewSource(seed))
		opt := Options{Backend: BackendSerial}
		if tiled {
			opt.Tiling = true
			opt.TileX = 3 + rng.Intn(13)
			opt.TileY = 3 + rng.Intn(13)
		} else {
			rng.Intn(13) // keep the RNG streams aligned
			rng.Intn(13)
		}
		ctx, err := NewContext(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Close()
		const nx, ny = 19, 16
		b := ctx.DeclBlock("grid", nx, ny)
		d1 := b.DeclDat("d1", 2)
		d2 := b.DeclDat("d2", 2)
		for j := -2; j < ny+2; j++ {
			for i := -2; i < nx+2; i++ {
				d1.Set(i, j, rng.Float64())
				d2.Set(i, j, rng.Float64())
			}
		}
		nloops := 2 + rng.Intn(8)
		for l := 0; l < nloops; l++ {
			// Random sub-range with room for radius-1 reads.
			x0 := 1 + rng.Intn(4)
			x1 := nx - 1 - rng.Intn(4)
			y0 := 1 + rng.Intn(4)
			y1 := ny - 1 - rng.Intn(4)
			r := Range{x0, x1, y0, y1}
			src, dst := d1, d2
			if rng.Intn(2) == 0 {
				src, dst = d2, d1
			}
			if rng.Intn(2) == 0 {
				// Radius-1 smoothing step.
				ctx.ParLoop("sm", b, r,
					[]Arg{ArgDat(src, S2D5pt, Read), ArgDat(dst, S2D00, RW)},
					func(a []*Acc, _ []float64) {
						a[1].Set(0, 0, a[1].Get(0, 0)*0.5+0.125*(a[0].Get(1, 0)+a[0].Get(-1, 0)+a[0].Get(0, 1)+a[0].Get(0, -1)))
					})
			} else {
				// Radius-0 axpy (creates anti-dependences on src).
				ctx.ParLoop("ax", b, r,
					[]Arg{ArgDat(src, S2D00, Read), ArgDat(dst, S2D00, RW)},
					func(a []*Acc, _ []float64) { a[1].Set(0, 0, a[1].Get(0, 0)+0.25*a[0].Get(0, 0)) })
			}
		}
		ctx.Flush()
		out := make([]float64, 0, 2*nx*ny)
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				out = append(out, at(d1, i, j), at(d2, i, j))
			}
		}
		return out
	}
	f := func(seed int64) bool {
		a := run(seed, false)
		b := run(seed, true)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTilingStats: tiling must actually defer and tile.
func TestTilingStats(t *testing.T) {
	ctx := mustCtx(t, Options{Backend: BackendSerial, Tiling: true, TileX: 8, TileY: 8})
	chainOnContext(ctx, 32, 32, 4)
	st := ctx.Stats()
	if st.Flushes == 0 {
		t.Error("no flushes recorded")
	}
	if st.Tiles < 16 {
		t.Errorf("expected >= 16 tiles for a 32x32 block with 8x8 tiles, got %d", st.Tiles)
	}
	if st.LoopsExecuted != st.LoopsEnqueued {
		t.Errorf("executed %d != enqueued %d", st.LoopsExecuted, st.LoopsEnqueued)
	}
}

// TestWholeRowLoopRunsEagerly: on a tiling context a loop whose stencil
// spans the block (a running sum along each row, from the row's first cell)
// flushes the chain queued before it and runs alone, so it never skews a
// chain; loops after it queue a new chain as before.
func TestWholeRowLoopRunsEagerly(t *testing.T) {
	ctx := mustCtx(t, Options{Backend: BackendSerial, Tiling: true, TileX: 4, TileY: 4})
	const nx, ny = 8, 6
	b := ctx.DeclBlock("grid", nx, ny)
	d, e := b.DeclDat("d", 2), b.DeclDat("e", 2)
	all := Range{0, nx, 0, ny}
	inc := func(a []*Acc, _ []float64, n int) {
		for k := 0; k < n; k++ {
			a[0].Set(k, 0, a[0].Get(k, 0)+1)
		}
	}
	ctx.ParLoopRow("inc", b, all, []Arg{ArgDat(d, S2D00, RW)}, inc)
	ctx.ParLoopRow("inc", b, all, []Arg{ArgDat(d, S2D00, RW)}, inc)
	if st := ctx.Stats(); st.LoopsExecuted != 0 {
		t.Fatalf("pointwise loops ran before a flush: %+v", st)
	}
	row := NewStencil("row", [2]int{0, 0}, [2]int{nx - 1, 0})
	ctx.ParLoopRow("scan", b, Range{0, 1, 0, ny}, []Arg{ArgDat(d, row, RW)}, func(a []*Acc, _ []float64, _ int) {
		for i := 1; i < nx; i++ {
			a[0].Set(i, 0, a[0].Get(i, 0)+a[0].Get(i-1, 0))
		}
	})
	st := ctx.Stats()
	if st.LoopsExecuted != 3 || st.Flushes != 2 || st.Chains != 1 {
		t.Errorf("after the whole-row loop: %+v, want 3 loops executed in 2 flushes, one a chain", st)
	}
	ctx.ParLoopRow("copy", b, all, []Arg{ArgDat(d, S2D00, Read), ArgDat(e, S2D00, Write)},
		func(a []*Acc, _ []float64, n int) {
			for i := 0; i < n; i++ {
				a[1].Set(i, 0, a[0].Get(i, 0))
			}
		})
	if got := ctx.Stats().LoopsExecuted; got != 3 {
		t.Errorf("a pointwise loop after the whole-row loop ran at once (%d executed)", got)
	}
	ctx.Flush()
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if got, want := at(e, i, j), float64(2*(i+1)); got != want {
				t.Fatalf("e(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

// TestCUDARejectsTiling documents the unsupported combination.
func TestCUDARejectsTiling(t *testing.T) {
	if _, err := NewContext(Options{Backend: BackendCUDA, Tiling: true}); err == nil {
		t.Error("expected error for CUDA+tiling")
	}
}

// TestParLoopBoundsCheck: a stencil point that would read outside the
// dat's halo must be rejected at loop declaration, not corrupt memory.
func TestParLoopBoundsCheck(t *testing.T) {
	ctx := mustCtx(t, Options{Backend: BackendSerial})
	b := ctx.DeclBlock("grid", 8, 8)
	d := b.DeclDat("d", 1) // halo 1: a 5pt read at the halo edge overflows
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-bounds stencil access")
		}
	}()
	ctx.ParLoop("bad", b, Range{-1, 9, -1, 9}, []Arg{ArgDat(d, S2D5pt, Read)},
		func(a []*Acc, _ []float64) { a[0].Get(0, 0) })
}

// TestParLoopWrongBlock: dats from another block are rejected.
func TestParLoopWrongBlock(t *testing.T) {
	ctx := mustCtx(t, Options{Backend: BackendSerial})
	b1 := ctx.DeclBlock("one", 4, 4)
	b2 := ctx.DeclBlock("two", 4, 4)
	d := b1.DeclDat("d", 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for cross-block dat")
		}
	}()
	ctx.ParLoop("bad", b2, Range{0, 4, 0, 4}, []Arg{ArgDat(d, S2D00, Read)},
		func(a []*Acc, _ []float64) {})
}

// TestArgIdx: the index argument must deliver every iteration point to the
// kernel on every backend, including negative (halo) coordinates.
func TestArgIdx(t *testing.T) {
	for _, be := range []Backend{BackendSerial, BackendOpenMP, BackendCUDA} {
		be := be
		t.Run(be.String(), func(t *testing.T) {
			ctx := mustCtx(t, Options{Backend: be, Threads: 3, Block: simgpu.Dim2{X: 4, Y: 4}})
			b := ctx.DeclBlock("grid", 6, 5)
			d := b.DeclDat("d", 2)
			ctx.ParLoop("index_fill", b, Range{-2, 8, -1, 6},
				[]Arg{ArgIdx(), ArgDat(d, S2D00, Write)},
				func(a []*Acc, _ []float64) {
					a[1].Set(0, 0, float64(100*a[0].I+a[0].J))
				})
			d.Download()
			for j := -1; j < 6; j++ {
				for i := -2; i < 8; i++ {
					if got := at(d, i, j); got != float64(100*i+j) {
						t.Fatalf("cell (%d,%d) = %g, want %d", i, j, got, 100*i+j)
					}
				}
			}
		})
	}
}

// TestArgIdxTiled: index arguments must survive the tiling pass (each tile
// sees its own absolute coordinates, not tile-relative ones).
func TestArgIdxTiled(t *testing.T) {
	ctx := mustCtx(t, Options{Backend: BackendSerial, Tiling: true, TileX: 3, TileY: 3})
	b := ctx.DeclBlock("grid", 10, 10)
	d := b.DeclDat("d", 0)
	ctx.ParLoop("index_fill", b, Range{0, 10, 0, 10},
		[]Arg{ArgIdx(), ArgDat(d, S2D00, Write)},
		func(a []*Acc, _ []float64) { a[1].Set(0, 0, float64(a[0].I*10+a[0].J)) })
	ctx.Flush()
	for j := 0; j < 10; j++ {
		for i := 0; i < 10; i++ {
			if got := at(d, i, j); got != float64(i*10+j) {
				t.Fatalf("tiled cell (%d,%d) = %g", i, j, got)
			}
		}
	}
}

// TestTileBoundsEdgeCases pins the tile-index arithmetic on the shapes the
// property tests rarely hit: empty ranges, a tile larger than the whole
// extent, and skews that push coordinates negative.
func TestTileBoundsEdgeCases(t *testing.T) {
	mk := func(r Range, radius int) *loopRecord {
		return &loopRecord{r: r, radius: radius}
	}
	xdim := func(r Range) (int, int) { return r.XLo, r.XHi }
	t.Run("empty ranges are skipped", func(t *testing.T) {
		loops := []*loopRecord{mk(Range{5, 5, 0, 4}, 0), mk(Range{2, 6, 0, 4}, 0)}
		t0, t1 := tileBounds(loops, []int{0, 0}, 4, xdim)
		if t0 != 0 || t1 != 1 {
			t.Errorf("bounds = [%d,%d], want [0,1] (empty first range ignored)", t0, t1)
		}
	})
	t.Run("tile larger than extent", func(t *testing.T) {
		loops := []*loopRecord{mk(Range{0, 7, 0, 7}, 0)}
		t0, t1 := tileBounds(loops, []int{0}, 1024, xdim)
		if t0 != 0 || t1 != 0 {
			t.Errorf("bounds = [%d,%d], want a single tile", t0, t1)
		}
	})
	t.Run("negative origins", func(t *testing.T) {
		// A halo-wide loop starting at -2 with an accumulated skew of 3
		// reaches skewed coordinate 1; the lower bound must round toward
		// negative infinity, not toward zero.
		loops := []*loopRecord{mk(Range{-2, 10, -2, 10}, 1), mk(Range{-2, 10, -2, 10}, 1)}
		t0, t1 := tileBounds(loops, []int{0, 2}, 4, xdim)
		if t0 != -1 || t1 != 2 {
			t.Errorf("bounds = [%d,%d], want [-1,2]", t0, t1)
		}
	})
	t.Run("floorDiv", func(t *testing.T) {
		for _, c := range []struct{ a, b, q int }{
			{-1, 4, -1}, {-4, 4, -1}, {-5, 4, -2}, {0, 4, 0}, {3, 4, 0}, {4, 4, 1},
		} {
			if got := floorDiv(c.a, c.b); got != c.q {
				t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.q)
			}
		}
	})
}

// TestTilingDegenerateGeometries: 1-wide and 1-tall tiles (and a tile that
// swallows the whole block) must stay bitwise identical to immediate
// execution — these maximise the number of tile boundaries the skew
// arithmetic has to get right.
func TestTilingDegenerateGeometries(t *testing.T) {
	ref := chainOnContext(mustCtx(t, Options{Backend: BackendSerial}), 21, 18, 4)
	for _, geom := range [][2]int{{1, 1}, {1, 16}, {16, 1}, {1, 64}, {64, 1}, {256, 256}} {
		geom := geom
		t.Run(fmt.Sprintf("%dx%d", geom[0], geom[1]), func(t *testing.T) {
			got := chainOnContext(mustCtx(t, Options{
				Backend: BackendSerial, Tiling: true, TileX: geom[0], TileY: geom[1],
			}), 21, 18, 4)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("cell %d: got %g want %g", i, got[i], ref[i])
				}
			}
		})
	}
}

// TestDeferredReductionMatchesEager: a deferred dot product joining a tiled
// chain must return bitwise the same value as eager execution, because both
// fold the same per-row partials in ascending row order regardless of the
// tile geometry that produced them.
func TestDeferredReductionMatchesEager(t *testing.T) {
	run := func(opt Options) (float64, []float64) {
		ctx := mustCtx(t, opt)
		const nx, ny = 23, 17
		b := ctx.DeclBlock("grid", nx, ny)
		u := b.DeclDat("u", 2)
		v := b.DeclDat("v", 2)
		for j := -2; j < ny+2; j++ {
			for i := -2; i < nx+2; i++ {
				u.Set(i, j, float64((3*i+5*j)%7)+0.125)
				v.Set(i, j, float64((2*i-j)%5)+0.5)
			}
		}
		interior := Range{0, nx, 0, ny}
		// A producer loop ahead of the reduction so the chain is non-trivial.
		ctx.ParLoop("smooth", b, Range{1, nx - 1, 1, ny - 1},
			[]Arg{ArgDat(u, S2D5pt, Read), ArgDat(v, S2D00, RW)},
			func(a []*Acc, _ []float64) {
				a[1].Set(0, 0, a[1].Get(0, 0)+0.25*(a[0].Get(1, 0)+a[0].Get(-1, 0)+a[0].Get(0, 1)+a[0].Get(0, -1)))
			})
		dot := ctx.ParLoopRedDeferred("dot", b, interior, 1,
			[]Arg{ArgDat(u, S2D00, Read), ArgDat(v, S2D00, Read)},
			func(a []*Acc, red []float64) { red[0] += a[0].Get(0, 0) * a[1].Get(0, 0) })
		val := dot.Values()[0] // true sync point: flushes the chain
		out := make([]float64, 0, nx*ny)
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				out = append(out, at(v, i, j))
			}
		}
		return val, out
	}
	refVal, refField := run(Options{Backend: BackendSerial})
	for _, opt := range []Options{
		{Backend: BackendSerial, Tiling: true, TileX: 4, TileY: 3},
		{Backend: BackendSerial, Tiling: true, TileX: 1, TileY: 7},
		{Backend: BackendSerial, Tiling: true, TileX: 9, TileY: 1},
		{Backend: BackendOpenMP, Threads: 3},
		{Backend: BackendOpenMP, Threads: 3, Tiling: true, TileX: 5, TileY: 4},
	} {
		opt := opt
		name := opt.Backend.String()
		if opt.Tiling {
			name = fmt.Sprintf("%s_tiled_%dx%d", name, opt.TileX, opt.TileY)
		}
		t.Run(name, func(t *testing.T) {
			val, field := run(opt)
			if val != refVal {
				t.Errorf("deferred dot = %v, want %v (bitwise)", val, refVal)
			}
			for i := range refField {
				if field[i] != refField[i] {
					t.Fatalf("cell %d: got %g want %g", i, field[i], refField[i])
				}
			}
		})
	}
}

// TestDeferredReductionDiscard: Discard must drop the queued chain, mark
// pending handles unusable, and count the rollback.
func TestDeferredReductionDiscard(t *testing.T) {
	ctx := mustCtx(t, Options{Backend: BackendSerial, Tiling: true, TileX: 4, TileY: 4})
	b := ctx.DeclBlock("grid", 8, 8)
	d := b.DeclDat("d", 1)
	red := ctx.ParLoopRedDeferred("dot", b, Range{0, 8, 0, 8}, 1,
		[]Arg{ArgDat(d, S2D00, Read)},
		func(a []*Acc, r []float64) { r[0] += a[0].Get(0, 0) })
	ctx.Discard()
	if st := ctx.Stats(); st.Discards != 1 {
		t.Errorf("Discards = %d, want 1", st.Discards)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Values() on a discarded reduction must panic")
			}
		}()
		red.Values()
	}()
	// The context must stay usable after a discard.
	ctx.ParLoop("fill", b, Range{0, 8, 0, 8}, []Arg{ArgDat(d, S2D00, Write)},
		func(a []*Acc, _ []float64) { a[0].Set(0, 0, 1) })
	ctx.Flush()
	if got := at(d, 3, 3); got != 1 {
		t.Errorf("post-discard loop did not run: d(3,3) = %g", got)
	}
}

// TestTilingPropertyRandomChainsWithReductions extends the random-chain
// property test with deferred reductions riding the chain and degenerate
// tile extents (including 1xN and Nx1). Every handle stays pending across the
// later loops of its chain and is read at the end, so it doubles as the
// handle-lifetime test of the recycled state: untiled on the team and on the
// device too, every run must match serial untiled bitwise, which a partial
// buffer or a handle handed to a later loop before its reader is done fails.
// The device blocks are one row wide and wider than the mesh, so each block's
// partial is one row's and the block-order sum is the serial row-order sum.
func TestTilingPropertyRandomChainsWithReductions(t *testing.T) {
	run := func(seed int64, opt Options) []float64 {
		rng := rand.New(rand.NewSource(seed))
		tx := 1 + rng.Intn(16)
		ty := 1 + rng.Intn(16)
		if opt.Tiling {
			opt.TileX, opt.TileY = tx, ty
		}
		ctx, err := NewContext(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Close()
		const nx, ny = 17, 14
		b := ctx.DeclBlock("grid", nx, ny)
		d1 := b.DeclDat("d1", 2)
		d2 := b.DeclDat("d2", 2)
		for j := -2; j < ny+2; j++ {
			for i := -2; i < nx+2; i++ {
				d1.Set(i, j, rng.Float64())
				d2.Set(i, j, rng.Float64())
			}
		}
		d1.Upload()
		d2.Upload()
		var out []float64
		var pending []*Reduction
		nloops := 3 + rng.Intn(7)
		for l := 0; l < nloops; l++ {
			x0 := 1 + rng.Intn(3)
			x1 := nx - 1 - rng.Intn(3)
			y0 := 1 + rng.Intn(3)
			y1 := ny - 1 - rng.Intn(3)
			r := Range{x0, x1, y0, y1}
			src, dst := d1, d2
			if rng.Intn(2) == 0 {
				src, dst = d2, d1
			}
			switch rng.Intn(3) {
			case 0:
				ctx.ParLoop("sm", b, r,
					[]Arg{ArgDat(src, S2D5pt, Read), ArgDat(dst, S2D00, RW)},
					func(a []*Acc, _ []float64) {
						a[1].Set(0, 0, a[1].Get(0, 0)*0.5+0.125*(a[0].Get(1, 0)+a[0].Get(-1, 0)+a[0].Get(0, 1)+a[0].Get(0, -1)))
					})
			case 1:
				ctx.ParLoop("ax", b, r,
					[]Arg{ArgDat(src, S2D00, Read), ArgDat(dst, S2D00, RW)},
					func(a []*Acc, _ []float64) { a[1].Set(0, 0, a[1].Get(0, 0)+0.25*a[0].Get(0, 0)) })
			case 2:
				pending = append(pending, ctx.ParLoopRedDeferred("dot", b, r, 2,
					[]Arg{ArgDat(src, S2D00, Read), ArgDat(dst, S2D00, Read)},
					func(a []*Acc, red []float64) {
						red[0] += a[0].Get(0, 0) * a[1].Get(0, 0)
						red[1] += a[0].Get(0, 0) + a[1].Get(0, 0)
					}))
			}
		}
		for _, p := range pending {
			out = append(out, p.Values()...)
		}
		ctx.Flush()
		d1.Download()
		d2.Download()
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				out = append(out, at(d1, i, j), at(d2, i, j))
			}
		}
		return out
	}
	for name, opt := range map[string]Options{
		"tiled":  {Backend: BackendSerial, Tiling: true},
		"openmp": {Backend: BackendOpenMP, Threads: 3},
		"cuda":   {Backend: BackendCUDA, Threads: 2, Block: simgpu.Dim2{X: 32, Y: 1}},
	} {
		opt := opt
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				a := run(seed, Options{Backend: BackendSerial})
				b := run(seed, opt)
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestTilingPropertyRowKernels: a loop written as a row kernel and the same
// body written per point and run through ParLoop/ParLoopRedDeferred's adapter
// must agree bitwise — dats and reduction values — on every backend and under
// every segment geometry: whole rows, team shares, device thread-rows wider
// and narrower than the range, tile slices down to one cell, and ranges
// narrower than a tile or one cell wide. The row form's reductions are read
// at once (ParLoopRedRow, on the context's own handle) and the per-point
// form's deferred to the end, so the two also cut a tiled queue into
// different chains.
func TestTilingPropertyRowKernels(t *testing.T) {
	const nx, ny = 19, 16
	run := func(seed int64, opt Options, rows bool) []float64 {
		rng := rand.New(rand.NewSource(seed))
		ctx, err := NewContext(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Close()
		b := ctx.DeclBlock("grid", nx, ny)
		d1, d2 := b.DeclDat("d1", 2), b.DeclDat("d2", 2)
		for j := -2; j < ny+2; j++ {
			for i := -2; i < nx+2; i++ {
				d1.Set(i, j, rng.Float64())
				d2.Set(i, j, rng.Float64())
			}
		}
		d1.Upload()
		d2.Upload()
		// span is a random sub-range of [1, n-1), one cell wide a third of
		// the time.
		span := func(n int) (int, int) {
			lo := 1 + rng.Intn(n-2)
			if rng.Intn(3) == 0 {
				return lo, lo + 1
			}
			return lo, lo + 1 + rng.Intn(n-1-lo)
		}
		var reads []func() []float64
		for l, nloops := 0, 4+rng.Intn(8); l < nloops; l++ {
			var r Range
			r.XLo, r.XHi = span(nx)
			r.YLo, r.YHi = span(ny)
			src, dst := d1, d2
			if rng.Intn(2) == 0 {
				src, dst = d2, d1
			}
			switch kind := rng.Intn(4); {
			case kind == 0 && rows:
				ctx.ParLoopRow("sm", b, r, []Arg{ArgDat(src, S2D5pt, Read), ArgDat(dst, S2D00, RW)},
					func(a []*Acc, _ []float64, n int) {
						for i := 0; i < n; i++ {
							a[1].Set(i, 0, a[1].Get(i, 0)*0.5+0.125*(a[0].Get(i+1, 0)+a[0].Get(i-1, 0)+a[0].Get(i, 1)+a[0].Get(i, -1)))
						}
					})
			case kind == 0:
				ctx.ParLoop("sm", b, r, []Arg{ArgDat(src, S2D5pt, Read), ArgDat(dst, S2D00, RW)},
					func(a []*Acc, _ []float64) {
						a[1].Set(0, 0, a[1].Get(0, 0)*0.5+0.125*(a[0].Get(1, 0)+a[0].Get(-1, 0)+a[0].Get(0, 1)+a[0].Get(0, -1)))
					})
			case kind == 1 && rows:
				ctx.ParLoopRow("ax", b, r, []Arg{ArgDat(src, S2D00, Read), ArgDat(dst, S2D00, RW)},
					func(a []*Acc, _ []float64, n int) {
						for i := 0; i < n; i++ {
							a[1].Set(i, 0, a[1].Get(i, 0)+0.25*a[0].Get(i, 0))
						}
					})
			case kind == 1:
				ctx.ParLoop("ax", b, r, []Arg{ArgDat(src, S2D00, Read), ArgDat(dst, S2D00, RW)},
					func(a []*Acc, _ []float64) { a[1].Set(0, 0, a[1].Get(0, 0)+0.25*a[0].Get(0, 0)) })
			case kind == 2 && rows:
				vals := make([]float64, 2)
				ctx.ParLoopRedRow("dot", b, r, vals,
					[]Arg{ArgDat(src, S2D00, Read), ArgDat(dst, S2D00, Read)},
					func(a []*Acc, red []float64, n int) {
						for i := 0; i < n; i++ {
							red[0] += a[0].Get(i, 0) * a[1].Get(i, 0)
							red[1] += a[0].Get(i, 0) + a[1].Get(i, 0)
						}
					})
				reads = append(reads, func() []float64 { return vals })
			case kind == 2:
				reads = append(reads, ctx.ParLoopRedDeferred("dot", b, r, 2,
					[]Arg{ArgDat(src, S2D00, Read), ArgDat(dst, S2D00, Read)},
					func(a []*Acc, red []float64) {
						red[0] += a[0].Get(0, 0) * a[1].Get(0, 0)
						red[1] += a[0].Get(0, 0) + a[1].Get(0, 0)
					}).Values)
			case rows:
				ctx.ParLoopRow("idx", b, r, []Arg{ArgIdx(), ArgDat(dst, S2D00, RW)},
					func(a []*Acc, _ []float64, n int) {
						for i := 0; i < n; i++ {
							a[1].Set(i, 0, 0.5*a[1].Get(i, 0)+float64(3*(a[0].I+i)-2*a[0].J))
						}
					})
			default:
				ctx.ParLoop("idx", b, r, []Arg{ArgIdx(), ArgDat(dst, S2D00, RW)},
					func(a []*Acc, _ []float64) {
						a[1].Set(0, 0, 0.5*a[1].Get(0, 0)+float64(3*a[0].I-2*a[0].J))
					})
			}
		}
		var out []float64
		for _, read := range reads {
			out = append(out, read()...)
		}
		ctx.Flush()
		d1.Download()
		d2.Download()
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				out = append(out, at(d1, i, j), at(d2, i, j))
			}
		}
		return out
	}
	for name, opt := range map[string]Options{
		"serial":           {Backend: BackendSerial},
		"openmp":           {Backend: BackendOpenMP, Threads: 3},
		"openacc":          {Backend: BackendACC, Threads: 3},
		"cuda_64x8":        {Backend: BackendCUDA, Block: simgpu.Dim2{X: 64, Y: 8}},
		"cuda_5x3":         {Backend: BackendCUDA, Block: simgpu.Dim2{X: 5, Y: 3}},
		"tiled_1x7":        {Backend: BackendSerial, Tiling: true, TileX: 1, TileY: 7},
		"tiled_9x1":        {Backend: BackendSerial, Tiling: true, TileX: 9, TileY: 1},
		"tiled_4x3":        {Backend: BackendSerial, Tiling: true, TileX: 4, TileY: 3},
		"tiled_4x3_openmp": {Backend: BackendOpenMP, Threads: 3, Tiling: true, TileX: 4, TileY: 3},
	} {
		opt := opt
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				point, row := run(seed, opt, false), run(seed, opt, true)
				if len(point) != len(row) {
					return false
				}
				for i := range point {
					if point[i] != row[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Error(err)
			}
		})
	}
}

// at reads cell (i, j) of a dat's host copy.
func at(d *Dat, i, j int) float64 { return d.Host()[d.index(i, j)] }
