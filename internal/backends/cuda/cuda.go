// Package cuda is the accelerator TeaLeaf port, the analogue of the
// mini-app's hand-written CUDA build: the one chunk recipe
// (internal/backends/chunk, shared with every manual, Kokkos and RAJA
// version) under a chunk.Policy over the simulated device. Every field lives
// in device memory (Malloc), every kernel is a typed Launch over a (grid,
// block) index space whose blocks run the row bodies on their thread-rows
// (Block.ForRows, clipped to the launch's window, so a narrow halo face or
// the one-column line solve runs its in-range threads only), reductions are
// per-block partials combined on the stream (LaunchReduce), and the host only
// sees data it explicitly copies back (MemcpyD2H/H2D). The device runs its blocks on the version's thread count.
// The block size is a tuning parameter exactly as on real GPUs; the paper
// fixes (64, 8) for the OPS CUDA build and we default to the same.
package cuda

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// DefaultBlock is the kernel block size used when none is configured.
var DefaultBlock = simgpu.Dim2{X: 64, Y: 8}

// Chunk is the CUDA-style port: one chunk, all fields device-resident as
// flattened (ny+4)x(nx+4) buffers.
type Chunk struct {
	*chunk.Chunk[*simgpu.Buffer]
	pol *policy
}

var _ driver.Kernels = (*Chunk)(nil)

// New creates the port on a fresh device running its blocks on threads
// threads (<= 0: one), with the given kernel block size (zero value selects
// DefaultBlock).
func New(threads int, block simgpu.Dim2) *Chunk {
	if block.X <= 0 || block.Y <= 0 {
		block = DefaultBlock
	}
	dev := simgpu.NewDevice(simgpu.Props{Name: "simulated-p100", Parallelism: threads})
	pol := &policy{dev: dev, block: block}
	return &Chunk{chunk.New[*simgpu.Buffer](pol, false), pol}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string { return "manual-cuda" }

// Device exposes the underlying device for stats inspection.
func (c *Chunk) Device() *simgpu.Device { return c.pol.dev }

// Close implements driver.Kernels.
func (c *Chunk) Close() { c.pol.dev.Close() }

// FetchField implements driver.Kernels: a device-to-host copy followed by
// interior extraction.
func (c *Chunk) FetchField(id driver.FieldID) []float64 {
	return c.Interior(c.download(c.Field(id)))
}

// RestoreField implements driver.Kernels: copy the field down, patch the
// interior on the host, copy it back up — FetchField's inverse.
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) {
	buf := c.Field(id)
	host := c.download(buf) // preserve halo cells around the patched interior
	c.SetInterior(host, data)
	c.pol.dev.MemcpyH2D(buf, host)
}

// download copies a whole buffer to a new host array.
func (c *Chunk) download(buf *simgpu.Buffer) []float64 {
	host := make([]float64, buf.Len())
	c.pol.dev.MemcpyD2H(host, buf)
	return host
}

// policy is the CUDA layer: Malloc, and launches of the configured block
// size over row-major buffers stride cells wide.
type policy struct {
	dev    *simgpu.Device
	block  simgpu.Dim2
	stride int
}

// Alloc implements chunk.Policy.
func (p *policy) Alloc(n, rows, cols int) []*simgpu.Buffer {
	p.stride = cols
	f := make([]*simgpu.Buffer, n)
	for k := range f {
		f[k] = p.dev.Malloc(rows * cols)
	}
	return f
}

// For implements chunk.Policy: one thread per cell, a block's thread-rows
// handed to seg as segments.
func (p *policy) For(name string, win chunk.Window, args []*simgpu.Buffer, body chunk.Body) {
	nx, ny := win.X1-win.X0, win.Y1-win.Y0
	p.dev.Launch(name, simgpu.GridFor(nx, ny, p.block), p.block, args, func(b simgpu.Block, a [][]float64) {
		b.ForRows(nx, ny, func(gy, x0, x1 int) {
			row := (gy+win.Y0)*p.stride + win.X0
			body(a, row+x0, row+x1)
		})
	})
}

// Reduce implements chunk.Policy: each block threads one accumulator
// through its thread-rows and the per-block partials combine in block order.
func (p *policy) Reduce(name string, win chunk.Window, args []*simgpu.Buffer, body chunk.RedBody) float64 {
	nx, ny := win.X1-win.X0, win.Y1-win.Y0
	grid := simgpu.GridFor(nx, ny, p.block)
	return p.dev.LaunchReduce(name, grid, p.block, args, func(b simgpu.Block, a [][]float64) float64 {
		var acc float64
		b.ForRows(nx, ny, func(gy, x0, x1 int) {
			row := (gy+win.Y0)*p.stride + win.X0
			acc = body(a, row+x0, row+x1, acc)
		})
		return acc
	})
}
