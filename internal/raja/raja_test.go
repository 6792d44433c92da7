package raja

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

func policies(t *testing.T) map[string]ExecPolicy {
	t.Helper()
	// A one-thread team runs every loop on the caller's goroutine: the
	// sequential policy.
	ps := map[string]ExecPolicy{
		"seq":  NewOmp(1),
		"omp":  NewOmp(4),
		"cuda": NewCuda(1, simgpu.Dim2{X: 16, Y: 2}),
	}
	t.Cleanup(func() {
		for _, p := range ps {
			p.Close()
		}
	})
	return ps
}

func TestForAllAllPolicies(t *testing.T) {
	for name, p := range policies(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			data := p.Alloc(100)
			ForAll(p, RangeSegment{Begin: 10, End: 90}, func(i int) {
				data[i] = float64(i)
			})
			for i := range data {
				want := 0.0
				if i >= 10 && i < 90 {
					want = float64(i)
				}
				if data[i] != want {
					t.Fatalf("data[%d] = %g, want %g", i, data[i], want)
				}
			}
		})
	}
}

func TestKernel2DAllPolicies(t *testing.T) {
	for name, p := range policies(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			const nj, ni = 13, 17
			data := p.Alloc(nj * ni)
			Kernel2D(p, "fill", RangeSegment{End: nj}, RangeSegment{End: ni}, func(j, i int) {
				data[j*ni+i] = float64(100*j + i)
			})
			for j := 0; j < nj; j++ {
				for i := 0; i < ni; i++ {
					if data[j*ni+i] != float64(100*j+i) {
						t.Fatalf("(%d,%d) = %g", j, i, data[j*ni+i])
					}
				}
			}
		})
	}
}

func TestKernel2DReduceAllPolicies(t *testing.T) {
	for name, p := range policies(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			const nj, ni = 21, 33
			data := p.Alloc(nj * ni)
			ForAll(p, RangeSegment{End: nj * ni}, func(i int) { data[i] = 0.5 })
			sum := Kernel2DRowReduce(p, "sum", RangeSegment{End: nj}, RangeSegment{End: ni}, rowSum(data, ni))
			if sum != 0.5*nj*ni {
				t.Errorf("sum = %g, want %g", sum, 0.5*nj*ni)
			}
			// Determinism across repeats.
			for r := 0; r < 5; r++ {
				again := Kernel2DRowReduce(p, "sum", RangeSegment{End: nj}, RangeSegment{End: ni}, rowSum(data, ni))
				if again != sum {
					t.Fatalf("reduction not deterministic: %v != %v", again, sum)
				}
			}
		})
	}
}

// rowSum is a Kernel2DRowReduce body summing a row-major array of rows of
// length ni.
func rowSum(data []float64, ni int) func(j, i0, i1 int, s *float64) {
	return func(j, i0, i1 int, s *float64) {
		for _, x := range data[j*ni+i0 : j*ni+i1] {
			*s += x
		}
	}
}

func TestEmptySegments(t *testing.T) {
	for name, p := range policies(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			called := false
			ForAll(p, RangeSegment{Begin: 5, End: 5}, func(int) { called = true })
			Kernel2D(p, "e", RangeSegment{End: 0}, RangeSegment{End: 10}, func(int, int) { called = true })
			if called {
				t.Error("body invoked on empty segment")
			}
			if got := Kernel2DRowReduce(p, "e", RangeSegment{End: 3}, RangeSegment{End: 0},
				func(int, int, int, *float64) { called = true }); got != 0 || called {
				t.Errorf("empty reduce = %g", got)
			}
		})
	}
}

func TestPolicyNames(t *testing.T) {
	if NewOmp(1).Name() != "omp_parallel_for_exec" {
		t.Error("omp name")
	}
	if NewCuda(1, simgpu.Dim2{}).Name() != "cuda_exec" {
		t.Error("cuda name")
	}
}

func BenchmarkKernel2DOmp(b *testing.B) {
	p := NewOmp(0)
	defer p.Close()
	const n = 512
	src := p.Alloc(n * n)
	dst := p.Alloc(n * n)
	b.SetBytes(int64(n * n * 8))
	for i := 0; i < b.N; i++ {
		Kernel2D(p, "stencil", RangeSegment{Begin: 1, End: n - 1}, RangeSegment{Begin: 1, End: n - 1},
			func(j, i int) {
				at := j*n + i
				dst[at] = 0.25 * (src[at-1] + src[at+1] + src[at-n] + src[at+n])
			})
	}
}

// TestRowPolicyMatchesPerPoint writes the same stencil as a per-point
// Kernel2D body and as a row body over contiguous ranges, under every policy
// (the threaded one on a multi-thread team, the device one on a multi-worker
// device), over extents that do not divide the block: 1xN, Nx1, narrower
// than a block, one short, exact, one over, two blocks and a bit. The field
// must agree bit for bit, and the row dot product of the result must equal
// the serial sum: the operands are small multiples of 1/4, so every grouping
// of the sum is exact.
func TestRowPolicyMatchesPerPoint(t *testing.T) {
	cuda := func(block simgpu.Dim2) *CudaExec {
		return &CudaExec{dev: simgpu.NewDevice(simgpu.Props{Name: "test", Parallelism: 3}), block: block}
	}
	pols := map[string]ExecPolicy{
		"seq":        NewOmp(1),
		"omp":        NewOmp(3),
		"cuda-64x8":  cuda(simgpu.Dim2{X: 64, Y: 8}),
		"cuda-128x1": cuda(simgpu.Dim2{X: 128, Y: 1}),
	}
	t.Cleanup(func() {
		for _, p := range pols {
			p.Close()
		}
	})
	extents := []int{1, 2, 63, 64, 65, 130}
	for name, p := range pols {
		for _, nj := range extents {
			for _, ni := range extents {
				stride := ni + 2
				src, perPoint, perRow := p.Alloc(stride*(nj+2)), p.Alloc(stride*(nj+2)), p.Alloc(stride*(nj+2))
				for at := range src {
					src[at] = float64(at % 29)
				}
				cell := func(at int) float64 {
					return 4.25*src[at] - (src[at+1] + 0.5*src[at-1]) - (0.25*src[at+stride] + src[at-stride])
				}
				outer, inner := RangeSegment{Begin: 1, End: 1 + nj}, RangeSegment{Begin: 1, End: 1 + ni}
				Kernel2D(p, "per_point", outer, inner, func(j, i int) { perPoint[j*stride+i] = cell(j*stride + i) })
				want := 0.0
				for j := outer.Begin; j < outer.End; j++ {
					for i := inner.Begin; i < inner.End; i++ {
						want += src[j*stride+i] * perPoint[j*stride+i]
					}
				}
				Kernel2DRow(p, "per_row", outer, inner, func(j, i0, i1 int) {
					for at := j*stride + i0; at < j*stride+i1; at++ {
						perRow[at] = cell(at)
					}
				})
				got := Kernel2DRowReduce(p, "per_row_dot", outer, inner, func(j, i0, i1 int, sum *float64) {
					a, b := src[j*stride+i0:j*stride+i1], perRow[j*stride+i0:j*stride+i1]
					for k := range a {
						*sum += a[k] * b[k]
					}
				})
				if got != want {
					t.Errorf("%s %dx%d: row sum %v, serial %v", name, nj, ni, got, want)
				}
				for at := range perRow {
					if perRow[at] != perPoint[at] {
						t.Fatalf("%s %dx%d: cell %d row %x, per-point %x", name, nj, ni, at, perRow[at], perPoint[at])
					}
				}
			}
		}
	}
}
