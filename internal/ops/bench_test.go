package ops

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// benchStencilChain runs a representative TeaLeaf-like loop chain (two
// five-point sweeps plus an axpy) once per iteration.
func benchStencilChain(b *testing.B, opt Options) {
	b.Helper()
	ctx, err := NewContext(opt)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	const n = 384
	blk := ctx.DeclBlock("bench", n, n)
	u := blk.DeclDat("u", 2)
	w := blk.DeclDat("w", 2)
	acc := blk.DeclDat("acc", 2)
	for j := -2; j < n+2; j++ {
		for i := -2; i < n+2; i++ {
			u.Set(i, j, float64((i+j)%7))
		}
	}
	u.Upload()
	interior := Range{1, n - 1, 1, n - 1}
	b.SetBytes(3 * n * n * 8)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		ctx.ParLoop("sweep1", blk, interior,
			[]Arg{ArgDat(u, S2D5pt, Read), ArgDat(w, S2D00, Write)},
			func(a []*Acc, _ []float64) {
				a[1].Set(0, 0, 0.2*(a[0].Get(0, 0)+a[0].Get(1, 0)+a[0].Get(-1, 0)+a[0].Get(0, 1)+a[0].Get(0, -1)))
			})
		ctx.ParLoop("sweep2", blk, interior,
			[]Arg{ArgDat(w, S2D5pt, Read), ArgDat(u, S2D00, Write)},
			func(a []*Acc, _ []float64) {
				a[1].Set(0, 0, 0.2*(a[0].Get(0, 0)+a[0].Get(1, 0)+a[0].Get(-1, 0)+a[0].Get(0, 1)+a[0].Get(0, -1)))
			})
		ctx.ParLoop("axpy", blk, interior,
			[]Arg{ArgDat(u, S2D00, Read), ArgDat(acc, S2D00, RW)},
			func(a []*Acc, _ []float64) { a[1].Set(0, 0, a[1].Get(0, 0)+a[0].Get(0, 0)) })
		ctx.Flush()
	}
}

// BenchmarkParLoop compares the OPS backends (and the tiling pass) on the
// same chain — the framework-dispatch overhead the paper's framework
// comparison is about.
func BenchmarkParLoop(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchStencilChain(b, Options{Backend: BackendSerial}) })
	b.Run("openmp", func(b *testing.B) { benchStencilChain(b, Options{Backend: BackendOpenMP}) })
	b.Run("openacc", func(b *testing.B) { benchStencilChain(b, Options{Backend: BackendACC}) })
	b.Run("cuda", func(b *testing.B) {
		benchStencilChain(b, Options{Backend: BackendCUDA, Block: simgpu.Dim2{X: 64, Y: 8}})
	})
	b.Run("serial-tiled", func(b *testing.B) {
		benchStencilChain(b, Options{Backend: BackendSerial, Tiling: true, TileX: 128, TileY: 32})
	})
}
