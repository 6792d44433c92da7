// Package ops is a Go rendition of OPS, the Oxford Parallel library for
// Structured-mesh solvers: an embedded DSL in which applications declare
// blocks, datasets on blocks and stencils, and express every computation as
// a ParLoop over a rectangular index range with explicit access
// descriptors. From that single high-level source the library dispatches to
// multiple parallel backends — serial, threaded (OpenMP-like), simulated
// CUDA — and can defer execution to apply cache-blocking loop-chain tiling,
// the optimisation behind the paper's "OPS MPI Tiled" results.
//
// In the original OPS a source-to-source translator generates per-backend
// loop nests from one elemental kernel; here the same information (stencils
// + access modes) drives runtime dispatch, which preserves the programming
// model and the optimisation structure while staying a single Go library.
// What the translator would emit — the contiguous innermost loop — is the
// form a loop is held in: every loop is one RowKernel, called once per row
// segment by one host sweep (runRange) and one device launch (runCUDA), and
// every reduction goes through one engine (Reduction). ParLoopRow and
// ParLoopRedRow take that form directly; ParLoop, ParLoopRed and
// ParLoopRedDeferred take the per-point Kernel of the OPS user guide and wrap
// it in an adapter that walks it along each segment, for kernels that are not
// worth writing as a row. TeaLeaf's OPS versions (internal/backends/opsport)
// run the shared chunk recipe's bodies as row kernels, one loop per launch.
//
// A warm launch allocates nothing on any backend, tiled or not: the Context
// owns and recycles what a launch needs — the loop record (which copies the
// caller's argument list, so the caller may reuse it at once), an accessor
// set per team share, device block and chained loop, re-seated on every
// launch, the team and device bodies, bound once, and reduction partials
// from a free list. The one exception is a deferred reduction's handle and
// values, which must outlive the launch until the caller reads them.
//
// A loop's stencils are the whole of its dependency declaration: the tiling
// skew and the declaration-time bounds check derive from them, and a loop
// whose stencil radius spans its block runs outside any chain. Access modes
// are declared as in OPS, but nothing reads them at run time.
package ops

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"github.com/warwick-hpsc/tealeaf-go/internal/par"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// Backend selects how ParLoops execute.
type Backend int

const (
	// BackendSerial runs loops on the calling goroutine.
	BackendSerial Backend = iota
	// BackendOpenMP runs loops on a thread team with static scheduling.
	BackendOpenMP
	// BackendCUDA runs loops as kernel launches on a simulated device; dats
	// live in device memory.
	BackendCUDA
	// BackendACC runs loops gang-scheduled on a thread team (the OpenACC
	// code path OPS generates), host-resident data.
	BackendACC
)

func (b Backend) String() string {
	switch b {
	case BackendSerial:
		return "serial"
	case BackendOpenMP:
		return "openmp"
	case BackendCUDA:
		return "cuda"
	case BackendACC:
		return "openacc"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Options configures a Context.
type Options struct {
	Backend Backend
	// Threads is the team width for BackendOpenMP/BackendACC (<=0: all
	// cores) and the device's thread count for BackendCUDA (<=0: one).
	Threads int
	// Block is the kernel block size for BackendCUDA; the paper tunes OPS
	// CUDA with OPS_BLOCK_SIZE_X=64, OPS_BLOCK_SIZE_Y=8, the default here.
	Block simgpu.Dim2
	// Tiling enables lazy execution with skewed cache-block tiling
	// (host backends only).
	Tiling bool
	// TileX, TileY are the tile extent in cells (<=0 picks defaults).
	TileX, TileY int
	// TileAuto derives TileX/TileY from the detected cache topology and the
	// working set of the first flushed loop chain (the number of distinct
	// dats it touches), instead of the fixed defaults. Explicit TileX/TileY
	// win over TileAuto.
	TileAuto bool
}

// Stats counts what a context executed.
type Stats struct {
	LoopsEnqueued int64
	LoopsExecuted int64
	Flushes       int64
	Tiles         int64
	// Chains counts flushes that executed two or more queued loops as one
	// skewed-tiled chain; ChainedLoops is the total loops executed inside
	// such chains and MaxChainLen the longest chain seen. A tiled chain
	// traverses its footprint roughly once, so Flushes approximates the
	// effective number of full-field memory sweeps where LoopsExecuted is
	// what an untiled run would sweep.
	Chains       int64
	ChainedLoops int64
	MaxChainLen  int64
	// Discards counts queued loops dropped by Discard (rollback recovery
	// replaces state wholesale; a stale queue must not replay into it).
	Discards int64
}

// Context is one OPS instance: backend resources plus, when tiling, the
// lazy loop queue.
type Context struct {
	opt   Options
	team  *par.Team
	dev   *simgpu.Device
	queue []*loopRecord
	stats Stats
	// tileResolved flips once TileAuto has picked tile extents from the
	// first flushed chain's working set (see resolveAutoTile).
	tileResolved bool

	// What the context owns so that a warm launch allocates nothing: spare
	// loop records, free reduction partial buffers, the handle of the
	// loop ParLoopRedRow reads at once, and accessor sets —
	// one per team share (one on the serial backend), one per device block
	// and one per loop of a tiled chain, re-seated on every launch — with
	// the device per-block partials and the skew scratch of a chain.
	spare     []*loopRecord
	parts     [][]float64
	eager     Reduction // ParLoopRedRow's handle
	shareAccs []accSet
	blockAccs []accSet
	chainAccs []accSet
	blockPart []float64
	shift     []int
	// cur is the loop executeFull is running; shareBody and blockBody, the
	// team and device bodies bound once in NewContext, read it, and each
	// team share takes the next of shareAccs by nextShare.
	cur       *loopRecord
	shareBody func(j0, j1 int)
	blockBody func(simgpu.Block) float64
	nextShare atomic.Int32
}

// NewContext creates an OPS instance. Close it to release its resources.
func NewContext(opt Options) (*Context, error) {
	if opt.Block.X <= 0 || opt.Block.Y <= 0 {
		opt.Block = simgpu.Dim2{X: 64, Y: 8}
	}
	// Explicit tile extents always win; TileAuto defers the choice to the
	// first flushed chain (resolveAutoTile), with these as the fallback.
	if opt.TileX > 0 && opt.TileY > 0 {
		opt.TileAuto = false
	}
	if opt.TileX <= 0 {
		opt.TileX = 128
	}
	if opt.TileY <= 0 {
		opt.TileY = 32
	}
	ctx := &Context{opt: opt, tileResolved: !opt.TileAuto}
	ctx.shareBody, ctx.blockBody = ctx.runShare, ctx.runBlock
	switch opt.Backend {
	case BackendSerial:
		ctx.shareAccs = make([]accSet, 1)
	case BackendOpenMP, BackendACC:
		// The team width is fixed here, as par.NewTeam would default it, so
		// that every share has its accessor set.
		threads := opt.Threads
		if threads <= 0 {
			threads = runtime.GOMAXPROCS(0)
		}
		ctx.team = par.NewTeam(threads)
		ctx.shareAccs = make([]accSet, threads)
		// Share boundaries snap to the tile-row quantum so a thread's rows
		// cover whole tile rows of the (current) tile geometry; TileAuto
		// re-snaps when resolveAutoTile picks the real extents.
		ctx.team.SetShareAlign(shareAlignFor(opt.TileY))
	case BackendCUDA:
		if opt.Tiling {
			return nil, fmt.Errorf("ops: tiling is not supported on the CUDA backend")
		}
		ctx.dev = simgpu.NewDevice(simgpu.Props{Name: "ops-cuda", Parallelism: opt.Threads})
	default:
		return nil, fmt.Errorf("ops: unknown backend %v", opt.Backend)
	}
	return ctx, nil
}

// shareAlignFor maps a tile-row extent to the team share alignment: whole
// tile rows where practical, capped so alignment stays a locality hint on
// small meshes, and a multiple of 4 to match the unrolled kernel bodies.
func shareAlignFor(tileY int) int {
	if tileY > 16 {
		tileY = 16
	}
	return tileY &^ 3
}

// Close flushes pending loops and releases backend resources.
func (ctx *Context) Close() {
	ctx.Flush()
	if ctx.team != nil {
		ctx.team.Close()
	}
	if ctx.dev != nil {
		ctx.dev.Close()
	}
}

// Stats returns execution counters.
func (ctx *Context) Stats() Stats { return ctx.stats }

// TileShape returns the tile extents in cells. Under TileAuto the values
// are the defaults until the first multi-loop flush resolves them from the
// cache topology.
func (ctx *Context) TileShape() (tx, ty int) { return ctx.opt.TileX, ctx.opt.TileY }

// Device exposes the simulated device of a CUDA context (nil otherwise).
func (ctx *Context) Device() *simgpu.Device { return ctx.dev }

// Block is a structured-mesh block: an nx-by-ny index space datasets hang
// off.
type Block struct {
	ctx    *Context
	name   string
	nx, ny int
}

// DeclBlock declares a block on the context.
func (ctx *Context) DeclBlock(name string, nx, ny int) *Block {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("ops: block %q has invalid extent %dx%d", name, nx, ny))
	}
	return &Block{ctx: ctx, name: name, nx: nx, ny: ny}
}

// Dat is a dataset on a block: one double per cell with a halo of ghost
// cells. On the CUDA backend the working copy is device-resident and the
// host slice is a mirror kept in sync explicitly.
type Dat struct {
	block  *Block
	name   string
	depth  int
	stride int
	data   []float64
	dev    *simgpu.Buffer
}

// DeclDat declares a dataset with the given halo depth on every side.
func (b *Block) DeclDat(name string, depth int) *Dat {
	if depth < 0 {
		panic(fmt.Sprintf("ops: dat %q has negative halo %d", name, depth))
	}
	stride := b.nx + 2*depth
	d := &Dat{
		block:  b,
		name:   name,
		depth:  depth,
		stride: stride,
		data:   make([]float64, stride*(b.ny+2*depth)),
	}
	if b.ctx.opt.Backend == BackendCUDA {
		d.dev = b.ctx.dev.Malloc(len(d.data))
	}
	return d
}

// DeclDats declares one dataset per name, each with the given halo depth. On
// the OpenMP and ACC backends they are allocated one per claim across the
// context's team, so the zeroing and page faults of a block's storage run on
// every thread.
func (b *Block) DeclDats(depth int, names ...string) []*Dat {
	// DeclDat's own check, made here so that it panics on the caller and
	// not on a team worker.
	if depth < 0 {
		panic(fmt.Sprintf("ops: dats %q have negative halo %d", names, depth))
	}
	dats := make([]*Dat, len(names))
	decl := func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			dats[k] = b.DeclDat(names[k], depth)
		}
	}
	if t := b.ctx.team; t != nil {
		t.ForDynamic(0, len(names), 1, decl)
	} else {
		decl(0, len(names))
	}
	return dats
}

// index is the flat offset of cell (i, j); interior cells are (0..nx-1,
// 0..ny-1).
func (d *Dat) index(i, j int) int { return (j+d.depth)*d.stride + (i + d.depth) }

// Host returns the host copy, row-major with the halo. On the CUDA backend
// call Download first to refresh it and Upload to publish writes to it.
func (d *Dat) Host() []float64 { return d.data }

// Set writes cell (i, j) on the host copy. On the CUDA backend call Upload
// to publish host writes.
func (d *Dat) Set(i, j int, v float64) { d.data[d.index(i, j)] = v }

// Upload publishes the host copy to the device (CUDA backend; no-op
// otherwise).
func (d *Dat) Upload() {
	if d.dev != nil {
		d.block.ctx.dev.MemcpyH2D(d.dev, d.data)
	}
}

// Download refreshes the host copy from the device (CUDA backend; no-op
// otherwise).
func (d *Dat) Download() {
	if d.dev != nil {
		d.block.ctx.dev.MemcpyD2H(d.data, d.dev)
	}
}

// Data returns the working storage ParLoops operate on, row-major with the
// halo: the device view on the CUDA backend, the host copy otherwise.
func (d *Dat) Data() []float64 {
	if d.dev != nil {
		return d.dev.View()
	}
	return d.data
}

// Stencil is a named set of relative access points; its radius drives the
// tiling dependency analysis.
type Stencil struct {
	name   string
	pts    [][2]int
	radius int
}

// NewStencil declares a stencil from relative (dx, dy) points.
func NewStencil(name string, pts ...[2]int) *Stencil {
	if len(pts) == 0 {
		panic(fmt.Sprintf("ops: stencil %q has no points", name))
	}
	s := &Stencil{name: name, pts: pts}
	for _, p := range pts {
		s.radius = max(s.radius, max(abs(p[0]), abs(p[1])))
	}
	return s
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// S2D00 is the point stencil; S2D5pt the five-point star of the TeaLeaf
// operator.
var (
	S2D00  = NewStencil("00", [2]int{0, 0})
	S2D5pt = NewStencil("5pt", [2]int{0, 0}, [2]int{1, 0}, [2]int{-1, 0}, [2]int{0, 1}, [2]int{0, -1})
)

// AccessMode declares how a ParLoop argument is accessed.
type AccessMode int

const (
	// Read declares read-only access.
	Read AccessMode = iota
	// Write declares write-only access (every point written).
	Write
	// RW declares read-modify-write access.
	RW
)

// Arg is one ParLoop argument: a dataset accessed through a stencil, or an
// index argument that hands the kernel its iteration point.
type Arg struct {
	Dat     *Dat
	Stencil *Stencil
	Mode    AccessMode
	IsIdx   bool
}

// ArgDat constructs a dataset argument.
func ArgDat(d *Dat, s *Stencil, m AccessMode) Arg { return Arg{Dat: d, Stencil: s, Mode: m} }

// ArgIdx constructs an index argument (OPS's ops_arg_idx): the kernel's
// corresponding Acc carries the current iteration point in its I and J
// fields, letting kernels compute coordinate-dependent values (state
// generation, analytic sources) without host-side loops.
func ArgIdx() Arg { return Arg{IsIdx: true} }

// Range is the rectangular iteration range of a ParLoop, inclusive lower
// and exclusive upper bounds in block-interior coordinates (halo cells are
// addressed with negative / beyond-extent indices).
type Range struct {
	XLo, XHi, YLo, YHi int
}

// Acc gives a kernel stencil-relative access to one argument at the current
// iteration point, like OPS's generated ACC<double> macros. For ArgIdx
// arguments only the I and J fields are meaningful.
type Acc struct {
	data   []float64
	idx    int
	stride int
	// I, J are the current iteration point for ArgIdx arguments.
	I, J int
}

// Get reads the value at relative offset (dx, dy).
func (a *Acc) Get(dx, dy int) float64 { return a.data[a.idx+dy*a.stride+dx] }

// Set writes the value at relative offset (dx, dy).
func (a *Acc) Set(dx, dy int, v float64) { a.data[a.idx+dy*a.stride+dx] = v }

// Kernel is a per-point user kernel: called once per iteration point with one
// Acc per argument (in declaration order) and, for reducing loops, the
// accumulator slice. ParLoop, ParLoopRed and ParLoopRedDeferred run it
// through the row form (see RowKernel).
type Kernel func(a []*Acc, red []float64)
