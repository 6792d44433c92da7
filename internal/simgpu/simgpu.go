// Package simgpu is a simulated CUDA-like GPU device: separate device
// memory with explicit host<->device copies, kernels launched over a
// (grid, block) index space whose blocks run on the shared fork-join runtime
// (a par.Team), block-level reductions, and per-device accounting of
// launches and transfer volume.
//
// It stands in for CUDA and the Tesla P100 in this study (see DESIGN.md).
// Ports written against it have the same structure as their CUDA originals:
// flat-index kernels over a launch extent, explicit data residency, and
// a tunable block size whose choice really changes performance (here through
// the per-block kernel call and row walk, occupancy on real hardware). A
// launch costs what running its blocks costs: no launch latency is charged,
// and the small-versus-large-mesh GPU gap of the paper comes from the
// performance model (internal/perfmodel), not from this package.
//
// A kernel walks its block one of two ways. Block.ForRows hands it each
// thread-row as one contiguous x range already clipped to the problem
// extent — what a warp's coalesced access amounts to on a host, and the
// form every field-sized kernel uses, its body a slice loop over the row.
// Block.ForThreads calls the body once per thread with CUDA's per-thread
// range guard; it remains for the Kokkos and RAJA one-point patterns and as
// the reference the ForRows tests compare against.
//
// Every port builds its device on the version's thread count, so the blocks
// of a launch run concurrently; results do not depend on that count, since
// per-block partials are summed in block order.
package simgpu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// Dim2 is a two-dimensional launch extent.
type Dim2 struct {
	X, Y int
}

// Mul returns the number of elements in the extent.
func (d Dim2) Mul() int { return d.X * d.Y }

// Props describes the simulated device.
type Props struct {
	Name string
	// Parallelism is the number of concurrently executing blocks (the
	// device team's thread count); a stand-in for SM count x blocks-per-SM.
	// The ports set it to the version's thread count.
	Parallelism int
}

// Stats is a snapshot of device activity counters.
type Stats struct {
	Launches    int64 // kernel launches
	BlocksRun   int64 // total blocks executed
	BytesH2D    int64 // host-to-device transfer volume
	BytesD2H    int64 // device-to-host transfer volume
	Allocations int64 // device buffers allocated
}

// Device is a simulated GPU. Kernels and copies on one device serialise as
// on a single CUDA stream; the blocks of one launch run on the device's
// par.Team of Props.Parallelism threads, each thread taking one contiguous
// run of blocks in ascending order. The stream lock is what keeps the team's
// one-leader rule when several goroutines launch on one device.
//
// A kernel that panics, on whichever team thread ran the block, panics out of
// the launch call with the same value once the team has joined: the stream is
// released and the device stays usable.
type Device struct {
	props Props
	team  *par.Team

	mu     sync.Mutex // serialises launches and copies (the "stream")
	closed bool

	launches  atomic.Int64
	blocksRun atomic.Int64
	bytesH2D  atomic.Int64
	bytesD2H  atomic.Int64
	allocs    atomic.Int64

	// The launch in flight, read by runBlocks on the team's threads: its
	// extents, its kernel and one result slot per block. One descriptor
	// serves every launch because mu admits one at a time.
	grid, block Dim2
	kernel      func(Block) float64
	partials    []float64
	// faulted is set by the first block to panic; fault, its value, is
	// written only by that block's thread and read after the join.
	faulted atomic.Bool
	fault   any
	// runShare is runBlocks bound once, so a launch allocates nothing to
	// hand it to the team.
	runShare func(from, to int)
}

// NewDevice creates a device with the given properties. Parallelism <= 0
// selects one thread: every block runs, in order, on the launching goroutine.
func NewDevice(props Props) *Device {
	if props.Parallelism <= 0 {
		props.Parallelism = 1
	}
	d := &Device{props: props, team: par.NewTeam(props.Parallelism)}
	d.runShare = d.runBlocks
	return d
}

// Close releases the device's team. The device must be idle. Close is
// idempotent; a launch after Close panics.
func (d *Device) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	d.team.Close()
}

// Props returns the device description.
func (d *Device) Props() Props { return d.props }

// Stats returns a snapshot of the activity counters.
func (d *Device) Stats() Stats {
	return Stats{
		Launches:    d.launches.Load(),
		BlocksRun:   d.blocksRun.Load(),
		BytesH2D:    d.bytesH2D.Load(),
		BytesD2H:    d.bytesD2H.Load(),
		Allocations: d.allocs.Load(),
	}
}

// Buffer is device-resident memory. Host code must move data with
// MemcpyH2D/MemcpyD2H; kernels access it through Block.Arg. The element
// slice is deliberately unexported: touching device memory from host code
// without a copy is the classic CUDA porting bug this API shape prevents.
type Buffer struct {
	dev  *Device
	data []float64
}

// Malloc allocates a zeroed device buffer of n float64 elements.
func (d *Device) Malloc(n int) *Buffer {
	if n <= 0 {
		panic(fmt.Sprintf("simgpu: bad allocation size %d", n))
	}
	d.allocs.Add(1)
	return &Buffer{dev: d, data: make([]float64, n)}
}

// Len returns the buffer's element count.
func (b *Buffer) Len() int { return len(b.data) }

// MemcpyH2D copies len(src) elements from host to the start of dst.
func (d *Device) MemcpyH2D(dst *Buffer, src []float64) {
	d.checkBuffer(dst)
	if len(src) > len(dst.data) {
		panic(fmt.Sprintf("simgpu: H2D copy of %d elems overflows buffer of %d", len(src), len(dst.data)))
	}
	d.mu.Lock()
	copy(dst.data, src)
	d.mu.Unlock()
	d.bytesH2D.Add(int64(8 * len(src)))
}

// MemcpyD2H copies len(dst) elements from the start of src to host.
func (d *Device) MemcpyD2H(dst []float64, src *Buffer) {
	d.checkBuffer(src)
	if len(dst) > len(src.data) {
		panic(fmt.Sprintf("simgpu: D2H copy of %d elems overreads buffer of %d", len(dst), len(src.data)))
	}
	d.mu.Lock()
	copy(dst, src.data)
	d.mu.Unlock()
	d.bytesD2H.Add(int64(8 * len(dst)))
}

func (d *Device) checkBuffer(b *Buffer) {
	if b.dev != d {
		panic("simgpu: buffer used on a device it was not allocated on")
	}
}

// Block is the execution context handed to a kernel for one thread block.
type Block struct {
	// Idx is the block index within the grid; Grid and Dim are the launch
	// extents (gridDim / blockDim).
	Idx, Grid, Dim Dim2
}

// ForThreads invokes body once per thread of the block with the thread's
// global (x, y) coordinates — the gx = blockIdx.x*blockDim.x + threadIdx.x
// computation every CUDA kernel begins with. Bodies must bound-check against
// the problem extent exactly as CUDA kernels do.
func (b Block) ForThreads(body func(gx, gy int)) {
	baseX := b.Idx.X * b.Dim.X
	baseY := b.Idx.Y * b.Dim.Y
	for ty := 0; ty < b.Dim.Y; ty++ {
		gy := baseY + ty
		for tx := 0; tx < b.Dim.X; tx++ {
			body(baseX+tx, gy)
		}
	}
}

// ForRows invokes body once per thread-row of the block with the row's global
// y and the half-open global x range [x0, x1) its threads cover, both clipped
// to the nx-by-ny problem extent: the block's in-range threads exactly, in
// ForThreads order (rows ascending, each left to right), so a body that
// sweeps its segment in order and threads one accumulator through the calls
// reproduces a ForThreads reduction bit for bit. A block wholly outside the
// extent gets no call.
func (b Block) ForRows(nx, ny int, body func(gy, x0, x1 int)) {
	x0 := b.Idx.X * b.Dim.X
	x1 := min(x0+b.Dim.X, nx)
	if x0 >= x1 {
		return
	}
	y0 := b.Idx.Y * b.Dim.Y
	for gy, y1 := y0, min(y0+b.Dim.Y, ny); gy < y1; gy++ {
		body(gy, x0, x1)
	}
}

// GridFor computes the grid extent covering n-by-m threads with the given
// block size — the (n + block - 1) / block computation of every CUDA host
// call site.
func GridFor(nx, ny int, block Dim2) Dim2 {
	return Dim2{X: (nx + block.X - 1) / block.X, Y: (ny + block.Y - 1) / block.Y}
}

// View exposes the buffer's device-resident elements. It exists for
// framework layers (the Kokkos/RAJA/OPS analogues) whose own view
// abstractions mediate device access; kernel code may use it, host code
// must go through MemcpyD2H/MemcpyH2D. This is the same discipline a real
// CUDA device pointer demands.
func (b *Buffer) View() []float64 { return b.data }

// LaunchRaw runs a kernel over grid x block without resolving buffer
// arguments; the kernel closure carries its own view captures (obtained via
// View). Used by framework layers that manage buffer access themselves.
func (d *Device) LaunchRaw(name string, grid, block Dim2, kernel func(b Block)) {
	d.launch(name, grid, block, func(b Block) float64 { kernel(b); return 0 })
}

// LaunchReduceRaw is LaunchRaw with a per-block partial result, summed in
// block order.
func (d *Device) LaunchReduceRaw(name string, grid, block Dim2, kernel func(b Block) float64) float64 {
	return d.launch(name, grid, block, kernel)
}

// Args resolves device buffers into the element views a kernel receives.
// Kernel code must only touch device memory through these views — they are
// the kernel's pointer arguments.
func Args(bufs ...*Buffer) []*Buffer { return bufs }

// Launch runs a kernel over grid x block with the given buffer arguments.
// It blocks until the kernel completes (launch + synchronize), which is how
// the TeaLeaf CUDA port runs its solver kernels: each depends on the
// previous one's output. The kernel receives the buffers' element views in
// argument order, mirroring CUDA kernel pointer parameters.
func (d *Device) Launch(name string, grid, block Dim2, args []*Buffer, kernel func(b Block, a [][]float64)) {
	views := d.views(args)
	d.launch(name, grid, block, func(b Block) float64 { kernel(b, views); return 0 })
}

// LaunchReduce runs a kernel where every block produces one partial result
// (the shared-memory block reduction of a CUDA port) and returns the sum of
// the partials combined in block order — deterministic for a fixed grid,
// like a fixed-topology tree reduction, and the same at any Parallelism.
func (d *Device) LaunchReduce(name string, grid, block Dim2, args []*Buffer, kernel func(b Block, a [][]float64) float64) float64 {
	views := d.views(args)
	return d.launch(name, grid, block, func(b Block) float64 { return kernel(b, views) })
}

// views resolves buffer arguments into the element views a kernel receives.
func (d *Device) views(args []*Buffer) [][]float64 {
	views := make([][]float64, len(args))
	for i, b := range args {
		d.checkBuffer(b)
		views[i] = b.data
	}
	return views
}

// launch is the one block loop behind all four entry points. It validates
// the extents, holds the stream lock for the whole launch, counts the launch,
// runs kernel on every block with one team.For over the row-major block index
// and returns the per-block results summed in block order; plain launches'
// kernels return 0. The results land in the device's own buffer, grown on
// demand, so a reducing launch allocates nothing a plain one does not. A
// kernel panic caught by runBlocks is raised again here, after the join, with
// the lock released on the way out.
func (d *Device) launch(name string, grid, block Dim2, kernel func(Block) float64) float64 {
	if grid.X <= 0 || grid.Y <= 0 || block.X <= 0 || block.Y <= 0 {
		panic(fmt.Sprintf("simgpu: launch %q with empty extent grid=%v block=%v", name, grid, block))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		panic(fmt.Sprintf("simgpu: launch %q on closed device", name))
	}
	n := grid.Mul()
	d.launches.Add(1)
	d.blocksRun.Add(int64(n))
	if cap(d.partials) < n {
		d.partials = make([]float64, n)
	}
	d.grid, d.block, d.kernel = grid, block, kernel
	d.team.For(0, n, d.runShare)
	d.kernel = nil // hold no caller closure between launches
	if d.faulted.Load() {
		fault := d.fault
		d.fault = nil
		d.faulted.Store(false)
		panic(fault)
	}
	var sum float64
	for _, p := range d.partials[:n] {
		sum += p
	}
	return sum
}

// runBlocks runs the blocks [from, to) of the launch in flight, in order,
// each writing its result slot. A panicking block ends its share: the first
// panic of the launch is kept for launch to raise, so no panic reaches the
// team, whose workers cannot carry one.
func (d *Device) runBlocks(from, to int) {
	defer func() {
		if r := recover(); r != nil && d.faulted.CompareAndSwap(false, true) {
			d.fault = r
		}
	}()
	for slot := from; slot < to; slot++ {
		idx := Dim2{X: slot % d.grid.X, Y: slot / d.grid.X}
		d.partials[slot] = d.kernel(Block{Idx: idx, Grid: d.grid, Dim: d.block})
	}
}
