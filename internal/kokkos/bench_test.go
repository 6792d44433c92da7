package kokkos

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// benchMDRangeStencil measures one five-point sweep through Views — the
// per-functor dispatch cost the Kokkos abstraction adds over raw loops.
func benchMDRangeStencil(b *testing.B, space ExecSpace) {
	b.Helper()
	defer space.Close()
	const n = 384
	src := NewView(space, "src", n, n)
	dst := NewView(space, "dst", n, n)
	ParallelFor(space, "init", MDRange{0, n, 0, n}, func(j, i int) {
		src.Set(j, i, float64((i+j)%7))
	})
	interior := MDRange{1, n - 1, 1, n - 1}
	b.SetBytes(2 * n * n * 8)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		ParallelFor(space, "sweep", interior, func(j, i int) {
			dst.Set(j, i, 0.2*(src.At(j, i)+src.At(j, i+1)+src.At(j, i-1)+src.At(j+1, i)+src.At(j-1, i)))
		})
	}
}

// BenchmarkMDRange compares the execution spaces on a stencil sweep.
func BenchmarkMDRange(b *testing.B) {
	b.Run("Serial", func(b *testing.B) { benchMDRangeStencil(b, Serial{}) })
	b.Run("OpenMP", func(b *testing.B) { benchMDRangeStencil(b, NewOpenMP(0)) })
	b.Run("Cuda", func(b *testing.B) { benchMDRangeStencil(b, NewCuda(1, simgpu.Dim2{X: 64, Y: 8})) })
}

// BenchmarkDeepCopyLayouts measures the layout-converting deep copy
// (mirror <-> device), which transposes storage.
func BenchmarkDeepCopyLayouts(b *testing.B) {
	cuda := NewCuda(1, simgpu.Dim2{})
	defer cuda.Close()
	const n = 512
	dev := NewView(cuda, "d", n, n)
	host := CreateMirror(dev)
	b.SetBytes(n * n * 8)
	for i := 0; i < b.N; i++ {
		DeepCopy(dev, host)
	}
}
