// Package rajaport is TeaLeaf re-engineered on the RAJA-like portability layer
// (internal/raja), the analogue of the paper's RAJA builds: the one chunk
// recipe (internal/backends/chunk) under a chunk.Policy over an execution
// policy. Fields stay raw flat arrays allocated by the policy, and every
// kernel is a lambda handed to a RAJA::kernel-style dispatcher: row-policy
// lambdas (Kernel2DRow / Kernel2DRowReduce, with typed sum reductions), halo
// faces and line solves included.
// Swapping the policy object retargets the whole port between sequential,
// OpenMP-style and simulated-CUDA execution; the host reads and writes the
// arrays directly.
package rajaport

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/raja"
)

// Chunk is the RAJA port: one chunk, fields as policy-allocated flat arrays.
type Chunk struct {
	*chunk.Chunk[[]float64]
	pol  raja.ExecPolicy
	name string
}

var _ driver.Kernels = (*Chunk)(nil)

// New creates the port on the given execution policy. The port owns the
// policy and closes it.
func New(pol raja.ExecPolicy) *Chunk {
	name := "raja-seq"
	switch pol.Name() {
	case "omp_parallel_for_exec":
		name = "raja-openmp"
	case "cuda_exec":
		name = "raja-cuda"
	}
	return &Chunk{chunk.New[[]float64](&policy{pol: pol}, false), pol, name}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string { return c.name }

// Close implements driver.Kernels.
func (c *Chunk) Close() { c.pol.Close() }

// FetchField implements driver.Kernels: the arrays are the host's to read.
func (c *Chunk) FetchField(id driver.FieldID) []float64 { return c.Interior(c.Field(id)) }

// RestoreField implements driver.Kernels: the write-path inverse of
// FetchField, used by checkpoint rollback.
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) { c.SetInterior(c.Field(id), data) }

// policy is the RAJA layer: policy-allocated arrays stride cells wide, and
// nested-loop lambdas over a window's rows and columns.
type policy struct {
	pol    raja.ExecPolicy
	stride int
}

// Alloc implements chunk.Policy.
func (p *policy) Alloc(n, rows, cols int) [][]float64 {
	p.stride = cols
	f := make([][]float64, n)
	for k := range f {
		f[k] = p.pol.Alloc(rows * cols)
	}
	return f
}

// segments are a window's row and column ranges.
func segments(win chunk.Window) (rows, cols raja.RangeSegment) {
	return raja.RangeSegment{Begin: win.Y0, End: win.Y1}, raja.RangeSegment{Begin: win.X0, End: win.X1}
}

// For implements chunk.Policy with raja.Kernel2DRow.
func (p *policy) For(name string, win chunk.Window, args [][]float64, body chunk.Body) {
	rows, cols := segments(win)
	raja.Kernel2DRow(p.pol, name, rows, cols, func(j, i0, i1 int) {
		body(args, j*p.stride+i0, j*p.stride+i1)
	})
}

// Reduce implements chunk.Policy with raja.Kernel2DRowReduce.
func (p *policy) Reduce(name string, win chunk.Window, args [][]float64, body chunk.RedBody) float64 {
	rows, cols := segments(win)
	return raja.Kernel2DRowReduce(p.pol, name, rows, cols, func(j, i0, i1 int, sum *float64) {
		*sum = body(args, j*p.stride+i0, j*p.stride+i1, *sum)
	})
}
