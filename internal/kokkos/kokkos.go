// Package kokkos is a Go rendition of the Kokkos C++ template library's
// core programming model: multi-dimensional Views whose memory layout is
// chosen by the memory space (LayoutRight on CPUs, LayoutLeft on GPUs —
// the array-of-structures/structure-of-arrays adaptation the paper credits
// Kokkos with), execution spaces that run ParallelFor / TeamFor /
// TeamReduce functors over multi-dimensional range policies, and explicit
// host mirrors with deep copies for device-resident data.
//
// A range runs under one of two policies. TeamFor / TeamReduce are the
// hierarchical one (a TeamThreadRange over the views' slow index around a
// ThreadVectorRange over their stride-1 index): the functor receives one
// contiguous segment per call and reads it through View.Data, so the vector
// loop is a slice loop inside the functor and the layout decides which mesh
// direction it runs along. Every field-sized kernel uses it. ParallelFor is
// the flat MDRange policy, one functor call per point through
// View.At/Set/Add; it remains for kernels that are not line sweeps (halo
// faces, a line solve across the stride-1 direction) and as the reference
// the segment tests compare against.
package kokkos

import (
	"fmt"

	"github.com/warwick-hpsc/tealeaf-go/internal/par"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// Layout selects how a rank-2 View linearises its indices.
type Layout int

const (
	// LayoutRight is row-major: the last index is stride-1 (CPU caches like
	// this when the inner loop walks the last index).
	LayoutRight Layout = iota
	// LayoutLeft is column-major: the first index is stride-1 (GPU
	// coalescing likes this when threads map to the first index).
	LayoutLeft
)

func (l Layout) String() string {
	if l == LayoutLeft {
		return "LayoutLeft"
	}
	return "LayoutRight"
}

// MDRange is a rank-2 range policy: iteration over [B0,E0) x [B1,E1).
type MDRange struct {
	B0, E0 int
	B1, E1 int
}

// ExecSpace is an execution+memory space: it allocates views and runs
// parallel patterns.
type ExecSpace interface {
	// Name identifies the space ("Serial", "OpenMP", "Cuda").
	Name() string
	// DefaultLayout is the layout views take in this space.
	DefaultLayout() Layout
	// Fence completes outstanding work (no-op for the synchronous spaces
	// here, kept for API fidelity).
	Fence()
	// Close releases the space's resources.
	Close()

	alloc(n int) []float64
	parallelFor(name string, p MDRange, f func(i0, i1 int))
	teamFor(name string, p MDRange, f func(outer, lo, hi int))
	teamReduce(name string, p MDRange, f func(outer, lo, hi int, lsum *float64)) float64
}

// Serial is the single-threaded host space.
type Serial struct{}

// Name implements ExecSpace.
func (Serial) Name() string { return "Serial" }

// DefaultLayout implements ExecSpace.
func (Serial) DefaultLayout() Layout { return LayoutRight }

// Fence implements ExecSpace.
func (Serial) Fence() {}

// Close implements ExecSpace.
func (Serial) Close() {}

func (Serial) alloc(n int) []float64 { return make([]float64, n) }

func (Serial) parallelFor(_ string, p MDRange, f func(i0, i1 int)) {
	for i0 := p.B0; i0 < p.E0; i0++ {
		for i1 := p.B1; i1 < p.E1; i1++ {
			f(i0, i1)
		}
	}
}

func (Serial) teamFor(_ string, p MDRange, f func(outer, lo, hi int)) {
	if p.B1 >= p.E1 {
		return
	}
	for i0 := p.B0; i0 < p.E0; i0++ {
		f(i0, p.B1, p.E1)
	}
}

func (Serial) teamReduce(_ string, p MDRange, f func(outer, lo, hi int, lsum *float64)) float64 {
	var sum float64
	if p.B1 >= p.E1 {
		return sum
	}
	for i0 := p.B0; i0 < p.E0; i0++ {
		f(i0, p.B1, p.E1, &sum)
	}
	return sum
}

// OpenMP is the threaded host space, backed by internal/par's epoch-barrier
// team: TeamReduce rides the team's padded reduction slots (no
// allocation per reduce, deterministic combine for a fixed thread count),
// and using the space after Close panics, matching the Team contract.
type OpenMP struct {
	team *par.Team
}

// NewOpenMP creates the threaded host space with the given width (<= 0:
// all cores).
func NewOpenMP(threads int) *OpenMP { return &OpenMP{team: par.NewTeam(threads)} }

// Name implements ExecSpace.
func (*OpenMP) Name() string { return "OpenMP" }

// DefaultLayout implements ExecSpace.
func (*OpenMP) DefaultLayout() Layout { return LayoutRight }

// Fence implements ExecSpace.
func (*OpenMP) Fence() {}

// Close implements ExecSpace.
func (o *OpenMP) Close() { o.team.Close() }

func (*OpenMP) alloc(n int) []float64 { return make([]float64, n) }

func (o *OpenMP) parallelFor(_ string, p MDRange, f func(i0, i1 int)) {
	o.team.For(p.B0, p.E0, func(j0, j1 int) {
		for i0 := j0; i0 < j1; i0++ {
			for i1 := p.B1; i1 < p.E1; i1++ {
				f(i0, i1)
			}
		}
	})
}

func (o *OpenMP) teamFor(_ string, p MDRange, f func(outer, lo, hi int)) {
	if p.B1 >= p.E1 {
		return
	}
	o.team.For(p.B0, p.E0, func(j0, j1 int) {
		for i0 := j0; i0 < j1; i0++ {
			f(i0, p.B1, p.E1)
		}
	})
}

func (o *OpenMP) teamReduce(_ string, p MDRange, f func(outer, lo, hi int, lsum *float64)) float64 {
	if p.B1 >= p.E1 {
		return 0
	}
	return o.team.ReduceSum(p.B0, p.E0, func(j0, j1 int) float64 {
		var sum float64
		for i0 := j0; i0 < j1; i0++ {
			f(i0, p.B1, p.E1, &sum)
		}
		return sum
	})
}

// Cuda is the simulated-device space: views are device-resident
// (LayoutLeft) and patterns are kernel launches.
type Cuda struct {
	dev   *simgpu.Device
	block simgpu.Dim2
}

// NewCuda creates the device space on a device running its blocks on
// threads threads (<= 0: one), with the given kernel block size (zero value:
// 256x1, Kokkos's flat default).
func NewCuda(threads int, block simgpu.Dim2) *Cuda {
	if block.X <= 0 || block.Y <= 0 {
		block = simgpu.Dim2{X: 256, Y: 1}
	}
	return &Cuda{dev: simgpu.NewDevice(simgpu.Props{Name: "kokkos-cuda", Parallelism: threads}), block: block}
}

// Name implements ExecSpace.
func (*Cuda) Name() string { return "Cuda" }

// DefaultLayout implements ExecSpace.
func (*Cuda) DefaultLayout() Layout { return LayoutLeft }

// Fence implements ExecSpace.
func (*Cuda) Fence() {}

// Close implements ExecSpace.
func (c *Cuda) Close() { c.dev.Close() }

// Device exposes the underlying simulated device for stats.
func (c *Cuda) Device() *simgpu.Device { return c.dev }

func (c *Cuda) alloc(n int) []float64 { return c.dev.Malloc(n).View() }

func (c *Cuda) parallelFor(name string, p MDRange, f func(i0, i1 int)) {
	n0, n1 := p.E0-p.B0, p.E1-p.B1
	if n0 <= 0 || n1 <= 0 {
		return
	}
	// Threads map tx -> i0, the stride-1 index under LayoutLeft, so a
	// thread-row's accesses coalesce.
	grid := simgpu.GridFor(n0, n1, c.block)
	c.dev.LaunchRaw(name, grid, c.block, func(b simgpu.Block) {
		b.ForThreads(func(tx, ty int) {
			if tx >= n0 || ty >= n1 {
				return
			}
			f(p.B0+tx, p.B1+ty)
		})
	})
}

// teamFor keeps parallelFor's thread mapping (tx -> i0): a block's
// thread-row is one segment along i0 at a fixed i1.
func (c *Cuda) teamFor(name string, p MDRange, f func(outer, lo, hi int)) {
	n0, n1 := p.E0-p.B0, p.E1-p.B1
	if n0 <= 0 || n1 <= 0 {
		return
	}
	grid := simgpu.GridFor(n0, n1, c.block)
	c.dev.LaunchRaw(name, grid, c.block, func(b simgpu.Block) {
		b.ForRows(n0, n1, func(ty, x0, x1 int) { f(p.B1+ty, p.B0+x0, p.B0+x1) })
	})
}

func (c *Cuda) teamReduce(name string, p MDRange, f func(outer, lo, hi int, lsum *float64)) float64 {
	n0, n1 := p.E0-p.B0, p.E1-p.B1
	if n0 <= 0 || n1 <= 0 {
		return 0
	}
	grid := simgpu.GridFor(n0, n1, c.block)
	return c.dev.LaunchReduceRaw(name, grid, c.block, func(b simgpu.Block) float64 {
		var sum float64
		b.ForRows(n0, n1, func(ty, x0, x1 int) { f(p.B1+ty, p.B0+x0, p.B0+x1, &sum) })
		return sum
	})
}

// View is a rank-2 array of float64 living in an execution space's memory
// with that space's default layout.
type View struct {
	label  string
	space  ExecSpace
	layout Layout
	n0, n1 int
	s0, s1 int // strides of i0 and i1, fixed by the layout at NewView
	data   []float64
}

// NewView allocates a zeroed n0-by-n1 view in the space's memory with its
// default layout.
func NewView(space ExecSpace, label string, n0, n1 int) *View {
	if n0 <= 0 || n1 <= 0 {
		panic(fmt.Sprintf("kokkos: view %q has invalid extent %dx%d", label, n0, n1))
	}
	return newView(space, label, space.DefaultLayout(), n0, n1)
}

// newView allocates a view with an explicit layout and resolves its strides.
func newView(space ExecSpace, label string, layout Layout, n0, n1 int) *View {
	v := &View{label: label, space: space, layout: layout, n0: n0, n1: n1, data: space.alloc(n0 * n1)}
	if layout == LayoutRight {
		v.s0, v.s1 = n1, 1
	} else {
		v.s0, v.s1 = 1, n0
	}
	return v
}

// idx linearises (i0, i1) under the view's layout.
func (v *View) idx(i0, i1 int) int { return i0*v.s0 + i1*v.s1 }

// Data returns the view's elements as one flat slice, element (i0, i1) at
// i0*n1 + i1 under LayoutRight and i0 + i1*n0 under LayoutLeft: the analogue
// of Kokkos's view.data(), for code that indexes the allocation itself.
func (v *View) Data() []float64 { return v.data }

// At reads element (i0, i1).
func (v *View) At(i0, i1 int) float64 { return v.data[v.idx(i0, i1)] }

// Set writes element (i0, i1).
func (v *View) Set(i0, i1 int, x float64) { v.data[v.idx(i0, i1)] = x }

// Add accumulates into element (i0, i1).
func (v *View) Add(i0, i1 int, x float64) { v.data[v.idx(i0, i1)] += x }

// CreateMirror returns a host-space view with the same extents, used to
// stage data for a device view.
func CreateMirror(v *View) *View {
	return NewView(Serial{}, v.label+"_mirror", v.n0, v.n1)
}

// DeepCopy copies src into dst element-wise, converting layouts when they
// differ (the Kokkos deep_copy between mirror and device view).
func DeepCopy(dst, src *View) {
	if dst.n0 != src.n0 || dst.n1 != src.n1 {
		panic(fmt.Sprintf("kokkos: deep_copy extent mismatch %dx%d vs %dx%d", dst.n0, dst.n1, src.n0, src.n1))
	}
	if dst.layout == src.layout {
		copy(dst.data, src.data)
		return
	}
	for i0 := 0; i0 < src.n0; i0++ {
		for i1 := 0; i1 < src.n1; i1++ {
			dst.data[dst.idx(i0, i1)] = src.data[src.idx(i0, i1)]
		}
	}
}

// ParallelFor runs the functor over the policy in the space.
func ParallelFor(space ExecSpace, name string, p MDRange, f func(i0, i1 int)) {
	space.parallelFor(name, p, f)
}

// TeamFor runs the functor over the policy once per contiguous segment: for
// each value outer of the slow index, a range [lo, hi) of the stride-1 index
// (i1 within [B1, E1) under LayoutRight, i0 within [B0, E0) under LayoutLeft;
// the host spaces hand over the whole range, the device space one block
// thread-row of it). Segments arrive in the order ParallelFor would visit
// their points.
func TeamFor(space ExecSpace, name string, p MDRange, f func(outer, lo, hi int)) {
	space.teamFor(name, p, f)
}

// TeamReduce is TeamFor with a sum reduction. Each thread share or block
// threads one accumulator through its segments in order, so the sum is the
// same bits on every call for a fixed space and team size.
func TeamReduce(space ExecSpace, name string, p MDRange, f func(outer, lo, hi int, lsum *float64)) float64 {
	return space.teamReduce(name, p, f)
}
