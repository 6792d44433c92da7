package raja

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

func policies(t *testing.T) map[string]ExecPolicy {
	t.Helper()
	ps := map[string]ExecPolicy{
		"seq":  SeqExec{},
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
			sum := Kernel2DReduce(p, "sum", RangeSegment{End: nj}, RangeSegment{End: ni},
				func(j, i int, s *float64) { *s += data[j*ni+i] })
			if sum != 0.5*nj*ni {
				t.Errorf("sum = %g, want %g", sum, 0.5*nj*ni)
			}
			// Determinism across repeats.
			for r := 0; r < 5; r++ {
				again := Kernel2DReduce(p, "sum", RangeSegment{End: nj}, RangeSegment{End: ni},
					func(j, i int, s *float64) { *s += data[j*ni+i] })
				if again != sum {
					t.Fatalf("reduction not deterministic: %v != %v", again, sum)
				}
			}
		})
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
			if got := Kernel2DReduce(p, "e", RangeSegment{End: 3}, RangeSegment{End: 0},
				func(int, int, *float64) {}); got != 0 {
				t.Errorf("empty reduce = %g", got)
			}
		})
	}
}

func TestPolicyNames(t *testing.T) {
	if (SeqExec{}).Name() != "seq_exec" {
		t.Error("seq name")
	}
	if NewOmp(1).Name() != "omp_parallel_for_exec" {
		t.Error("omp name")
	}
	if NewCuda(1, simgpu.Dim2{}).Name() != "cuda_exec" {
		t.Error("cuda name")
	}
}

func TestCheckSegment(t *testing.T) {
	CheckSegment(RangeSegment{Begin: 1, End: 5})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on inverted segment")
		}
	}()
	CheckSegment(RangeSegment{Begin: 5, End: 1})
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

// TestRowPolicyMatchesPerPoint writes the same stencil and dot product as a
// per-point Kernel2D body and as a row body over contiguous ranges, under
// every policy (the threaded one on a multi-thread team, the device one on a
// multi-worker device), over extents that do not divide the block: 1xN, Nx1,
// narrower than a block, one short, exact, one over, two blocks and a bit.
// Ranges arrive in the order Kernel2D visits their points and each share or
// block threads one accumulator through them, so the field and the reduced
// sum must agree bit for bit.
func TestRowPolicyMatchesPerPoint(t *testing.T) {
	cuda := func(block simgpu.Dim2) *CudaExec {
		return &CudaExec{dev: simgpu.NewDevice(simgpu.Props{Name: "test", Parallelism: 3}), block: block}
	}
	pols := map[string]ExecPolicy{
		"seq":        SeqExec{},
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
					src[at] = 0.1 + float64(at%29)/7
				}
				cell := func(at int) float64 {
					return 4.25*src[at] - (src[at+1] + 0.5*src[at-1]) - (0.25*src[at+stride] + src[at-stride])
				}
				outer, inner := RangeSegment{Begin: 1, End: 1 + nj}, RangeSegment{Begin: 1, End: 1 + ni}
				Kernel2D(p, "per_point", outer, inner, func(j, i int) { perPoint[j*stride+i] = cell(j*stride + i) })
				want := Kernel2DReduce(p, "per_point_dot", outer, inner, func(j, i int, sum *float64) {
					*sum += src[j*stride+i] * perPoint[j*stride+i]
				})
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
					t.Errorf("%s %dx%d: row sum %x, per-point %x", name, nj, ni, got, want)
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
