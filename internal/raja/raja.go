// Package raja is a Go rendition of the RAJA C++ portability layer's core
// model: loop bodies written as lambdas over index segments, executed under
// interchangeable execution policies (OpenMP-style threads, one thread
// being the sequential run, and simulated CUDA), with policy-owned memory
// allocation and reduction support. Where Kokkos owns data layout through Views, RAJA deliberately
// leaves data as raw arrays and only abstracts the loop execution — the
// same division the paper describes.
//
// Kernel2DRow / Kernel2DRowReduce are the nested policy with a SIMD inner
// statement: the lambda receives one contiguous range of the inner index per
// call and loops over it itself, on sub-slices of its raw arrays. Every
// field-sized kernel uses them. ForAll / Kernel2D call the lambda once per
// point; they remain for kernels that are not line sweeps (halo faces) and
// as the reference the row tests compare against.
package raja

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// RangeSegment is a half-open index range [Begin, End).
type RangeSegment struct {
	Begin, End int
}

// Len returns the segment length (0 if empty).
func (r RangeSegment) Len() int { return max(0, r.End-r.Begin) }

// ExecPolicy controls where and how loops run.
type ExecPolicy interface {
	// Name identifies the policy ("omp_parallel_for_exec", "cuda_exec").
	Name() string
	// Alloc allocates loop data in the policy's memory space.
	Alloc(n int) []float64
	// Close releases policy resources.
	Close()

	forAll(name string, r RangeSegment, body func(i int))
	kernel2D(name string, outer, inner RangeSegment, body func(j, i int))
	kernel2DRow(name string, outer, inner RangeSegment, body func(j, i0, i1 int))
	kernel2DRowReduce(name string, outer, inner RangeSegment, body func(j, i0, i1 int, sum *float64)) float64
}

// OmpParallelForExec is the threaded host policy
// (omp_parallel_for_exec), backed by internal/par's epoch-barrier team:
// typed reductions ride the team's padded reduction slots (no allocation
// per reduce, deterministic combine for a fixed thread count), and using
// the policy after Close panics, matching the Team contract.
type OmpParallelForExec struct {
	team *par.Team
}

// NewOmp creates the threaded policy with the given width (<= 0: all
// cores).
func NewOmp(threads int) *OmpParallelForExec {
	return &OmpParallelForExec{team: par.NewTeam(threads)}
}

// Name implements ExecPolicy.
func (*OmpParallelForExec) Name() string { return "omp_parallel_for_exec" }

// Alloc implements ExecPolicy.
func (*OmpParallelForExec) Alloc(n int) []float64 { return make([]float64, n) }

// Close implements ExecPolicy.
func (p *OmpParallelForExec) Close() { p.team.Close() }

func (p *OmpParallelForExec) forAll(_ string, r RangeSegment, body func(i int)) {
	p.team.For(r.Begin, r.End, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

func (p *OmpParallelForExec) kernel2D(_ string, outer, inner RangeSegment, body func(j, i int)) {
	p.team.For(outer.Begin, outer.End, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			for i := inner.Begin; i < inner.End; i++ {
				body(j, i)
			}
		}
	})
}

func (p *OmpParallelForExec) kernel2DRow(_ string, outer, inner RangeSegment, body func(j, i0, i1 int)) {
	if inner.Len() == 0 {
		return
	}
	p.team.For(outer.Begin, outer.End, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			body(j, inner.Begin, inner.End)
		}
	})
}

func (p *OmpParallelForExec) kernel2DRowReduce(_ string, outer, inner RangeSegment, body func(j, i0, i1 int, sum *float64)) float64 {
	if inner.Len() == 0 {
		return 0
	}
	return p.team.ReduceSum(outer.Begin, outer.End, func(lo, hi int) float64 {
		var sum float64
		for j := lo; j < hi; j++ {
			body(j, inner.Begin, inner.End, &sum)
		}
		return sum
	})
}

// CudaExec is the simulated-device policy (cuda_exec<BLOCK>).
type CudaExec struct {
	dev   *simgpu.Device
	block simgpu.Dim2
}

// NewCuda creates the device policy on a device running its blocks on
// threads threads (<= 0: one), with the given block size (zero value: 128x1,
// a typical cuda_exec<128>).
func NewCuda(threads int, block simgpu.Dim2) *CudaExec {
	if block.X <= 0 || block.Y <= 0 {
		block = simgpu.Dim2{X: 128, Y: 1}
	}
	return &CudaExec{dev: simgpu.NewDevice(simgpu.Props{Name: "raja-cuda", Parallelism: threads}), block: block}
}

// Name implements ExecPolicy.
func (*CudaExec) Name() string { return "cuda_exec" }

// Alloc implements ExecPolicy: device-resident memory.
func (p *CudaExec) Alloc(n int) []float64 { return p.dev.Malloc(n).View() }

// Close implements ExecPolicy.
func (p *CudaExec) Close() { p.dev.Close() }

// Device exposes the simulated device for stats.
func (p *CudaExec) Device() *simgpu.Device { return p.dev }

func (p *CudaExec) forAll(name string, r RangeSegment, body func(i int)) {
	n := r.Len()
	if n == 0 {
		return
	}
	grid := simgpu.GridFor(n, 1, p.block)
	p.dev.LaunchRaw(name, grid, p.block, func(b simgpu.Block) {
		b.ForThreads(func(tx, ty int) {
			if tx >= n || ty >= 1 {
				return
			}
			body(r.Begin + tx)
		})
	})
}

func (p *CudaExec) kernel2D(name string, outer, inner RangeSegment, body func(j, i int)) {
	nj, ni := outer.Len(), inner.Len()
	if nj == 0 || ni == 0 {
		return
	}
	grid := simgpu.GridFor(ni, nj, p.block)
	p.dev.LaunchRaw(name, grid, p.block, func(b simgpu.Block) {
		b.ForThreads(func(tx, ty int) {
			if tx >= ni || ty >= nj {
				return
			}
			body(outer.Begin+ty, inner.Begin+tx)
		})
	})
}

func (p *CudaExec) kernel2DRow(name string, outer, inner RangeSegment, body func(j, i0, i1 int)) {
	nj, ni := outer.Len(), inner.Len()
	if nj == 0 || ni == 0 {
		return
	}
	grid := simgpu.GridFor(ni, nj, p.block)
	p.dev.LaunchRaw(name, grid, p.block, func(b simgpu.Block) {
		b.ForRows(ni, nj, func(ty, x0, x1 int) { body(outer.Begin+ty, inner.Begin+x0, inner.Begin+x1) })
	})
}

func (p *CudaExec) kernel2DRowReduce(name string, outer, inner RangeSegment, body func(j, i0, i1 int, sum *float64)) float64 {
	nj, ni := outer.Len(), inner.Len()
	if nj == 0 || ni == 0 {
		return 0
	}
	grid := simgpu.GridFor(ni, nj, p.block)
	return p.dev.LaunchReduceRaw(name, grid, p.block, func(b simgpu.Block) float64 {
		var sum float64
		b.ForRows(ni, nj, func(ty, x0, x1 int) { body(outer.Begin+ty, inner.Begin+x0, inner.Begin+x1, &sum) })
		return sum
	})
}

// ForAll runs body over the segment under the policy (RAJA::forall).
func ForAll(p ExecPolicy, r RangeSegment, body func(i int)) {
	p.forAll("forall", r, body)
}

// Kernel2D runs body over outer x inner under the policy (a RAJA::kernel
// with a two-level nested policy; outer maps to threads/blocks, inner is
// the stride-1 direction).
func Kernel2D(p ExecPolicy, name string, outer, inner RangeSegment, body func(j, i int)) {
	p.kernel2D(name, outer, inner, body)
}

// Kernel2DRow runs body over outer x inner under the policy with a SIMD
// inner statement: one call per row j with a contiguous range [i0, i1) of the
// inner index (the whole segment under the host policies, one block
// thread-row of it under cuda_exec), in the order Kernel2D would visit the
// points.
func Kernel2DRow(p ExecPolicy, name string, outer, inner RangeSegment, body func(j, i0, i1 int)) {
	p.kernel2DRow(name, outer, inner, body)
}

// Kernel2DRowReduce is Kernel2DRow with a sum reduction. Each thread share or
// block threads one accumulator through its rows in order, so the sum is the
// same bits on every call for a fixed policy and team size.
func Kernel2DRowReduce(p ExecPolicy, name string, outer, inner RangeSegment, body func(j, i0, i1 int, sum *float64)) float64 {
	return p.kernel2DRowReduce(name, outer, inner, body)
}
