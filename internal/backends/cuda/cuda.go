// Package cuda is the accelerator TeaLeaf port, the analogue of the
// mini-app's hand-written CUDA build: every field lives in (simulated)
// device memory, every kernel is a launch over a (grid, block) index space
// whose blocks run the internal/kern row bodies on their thread-rows (the
// halo faces alone are per-thread), reductions are per-block partials
// combined on the stream, and the host only sees data it explicitly copies
// back. The block size is a tuning parameter exactly as on real GPUs; the
// paper fixes (64, 8) for the OPS CUDA build and we default to the same.
package cuda

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/kern"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
	"github.com/warwick-hpsc/tealeaf-go/internal/state"
)

// DefaultBlock is the kernel block size used when none is configured.
var DefaultBlock = simgpu.Dim2{X: 64, Y: 8}

const halo = grid.DefaultHalo

// Chunk is the CUDA-style port: one chunk, all fields device-resident as
// flattened (nx+4)x(ny+4) buffers.
type Chunk struct {
	mesh    *grid.Mesh
	nx, ny  int
	stride  int
	rows    int
	dev     *simgpu.Device
	block   simgpu.Dim2
	precond config.Preconditioner

	density, energy0, energy1 *simgpu.Buffer
	u, u0                     *simgpu.Buffer
	p, r, w, z, sd, mi        *simgpu.Buffer
	kx, ky                    *simgpu.Buffer
	un, rtemp, tcp, tdp       *simgpu.Buffer
	byID                      [driver.NumFields]*simgpu.Buffer
}

var _ driver.Kernels = (*Chunk)(nil)

// New creates the port on a fresh device with the given kernel block size
// (zero value selects DefaultBlock).
func New(block simgpu.Dim2) *Chunk {
	if block.X <= 0 || block.Y <= 0 {
		block = DefaultBlock
	}
	return &Chunk{dev: simgpu.NewDevice(simgpu.Props{Name: "simulated-p100"}), block: block}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string { return "manual-cuda" }

// Device exposes the underlying device for stats inspection.
func (c *Chunk) Device() *simgpu.Device { return c.dev }

// segKernel is a kernel body for one block thread-row: a holds the launch's
// buffer views and [lo, hi) is the flat index range of the row's cells.
type segKernel func(a [][]float64, lo, hi int)

// launch runs seg over the w-by-h window of cells whose corner lies off cells
// into the halo'd storage (off = halo: the interior), one call per thread-row
// of every block.
func (c *Chunk) launch(name string, off, w, h int, args []*simgpu.Buffer, seg segKernel) {
	stride := c.stride
	c.dev.Launch(name, simgpu.GridFor(w, h, c.block), c.block, args,
		func(b simgpu.Block, a [][]float64) {
			b.ForRows(w, h, func(gy, x0, x1 int) {
				row := (gy+off)*stride + off
				seg(a, row+x0, row+x1)
			})
		})
}

// interior launches seg over the interior cells.
func (c *Chunk) interior(name string, args []*simgpu.Buffer, seg segKernel) {
	c.launch(name, halo, c.nx, c.ny, args, seg)
}

// reduceInterior is interior with a block reduction: seg adds its row's terms
// to *acc left to right, each block threads one accumulator through its rows,
// and the per-block partials combine in block order.
func (c *Chunk) reduceInterior(name string, args []*simgpu.Buffer, seg func(a [][]float64, lo, hi int, acc *float64)) float64 {
	nx, ny, stride := c.nx, c.ny, c.stride
	return c.dev.LaunchReduce(name, simgpu.GridFor(nx, ny, c.block), c.block, args,
		func(b simgpu.Block, a [][]float64) float64 {
			var acc float64
			b.ForRows(nx, ny, func(gy, x0, x1 int) {
				row := (gy+halo)*stride + halo
				seg(a, row+x0, row+x1, &acc)
			})
			return acc
		})
}

// Generate implements driver.Kernels: allocate every field on the device and
// fill the initial state there with one launch over the halo'd extent, as the
// CUDA port's generate_chunk kernel does; no host copy of a field is made.
func (c *Chunk) Generate(m *grid.Mesh, states []config.State) error {
	if err := state.CheckBackground(states); err != nil {
		return err
	}
	c.mesh = m
	c.nx, c.ny = m.Nx, m.Ny
	c.stride = c.nx + 2*halo
	c.rows = c.ny + 2*halo
	n := c.stride * c.rows
	alloc := func() *simgpu.Buffer { return c.dev.Malloc(n) }
	c.density, c.energy0, c.energy1 = alloc(), alloc(), alloc()
	c.u, c.u0 = alloc(), alloc()
	c.p, c.r, c.w, c.z, c.sd, c.mi = alloc(), alloc(), alloc(), alloc(), alloc(), alloc()
	c.kx, c.ky = alloc(), alloc()
	c.un, c.rtemp = alloc(), alloc()
	c.tcp, c.tdp = alloc(), alloc()
	c.byID = [driver.NumFields]*simgpu.Buffer{
		driver.FieldDensity: c.density,
		driver.FieldEnergy0: c.energy0,
		driver.FieldEnergy1: c.energy1,
		driver.FieldU:       c.u,
		driver.FieldU0:      c.u0,
		driver.FieldP:       c.p,
		driver.FieldR:       c.r,
		driver.FieldW:       c.w,
		driver.FieldZ:       c.z,
		driver.FieldSD:      c.sd,
		driver.FieldKx:      c.kx,
		driver.FieldKy:      c.ky,
	}
	stride := c.stride
	c.launch("generate_chunk", 0, stride, c.rows, simgpu.Args(c.density, c.energy0), func(a [][]float64, lo, hi int) {
		state.FillRow(m, states, lo/stride-halo, lo%stride-halo, a[0][lo:hi], a[1][lo:hi])
	})
	return nil
}

// SetField implements driver.Kernels.
func (c *Chunk) SetField() { c.dev.MemcpyD2D(c.energy1, c.energy0, c.stride*c.rows) }

// ResetField implements driver.Kernels.
func (c *Chunk) ResetField() { c.dev.MemcpyD2D(c.energy0, c.energy1, c.stride*c.rows) }

// FieldSummary implements driver.Kernels: one block-reduction launch per
// summed total, read back as scalars.
func (c *Chunk) FieldSummary() driver.Totals {
	cellVol := c.mesh.CellVolume()
	var t driver.Totals
	t.Volume = float64(c.nx) * float64(c.ny) * cellVol
	t.Mass = c.reduceInterior("summary_mass", simgpu.Args(c.density),
		func(a [][]float64, lo, hi int, acc *float64) { _, *acc = kern.VolMass(0, *acc, a[0][lo:hi], cellVol) })
	args := simgpu.Args(c.density, c.energy0, c.u)
	t.InternalEnergy = c.reduceInterior("summary_ie", args, func(a [][]float64, lo, hi int, acc *float64) {
		*acc, _ = kern.EnergyTemp(*acc, 0, a[0][lo:hi], a[1][lo:hi], a[2][lo:hi], cellVol)
	})
	t.Temperature = c.reduceInterior("summary_temp", args, func(a [][]float64, lo, hi int, acc *float64) {
		_, *acc = kern.EnergyTemp(0, *acc, a[0][lo:hi], a[1][lo:hi], a[2][lo:hi], cellVol)
	})
	return t
}

// HaloExchange implements driver.Kernels: reflective boundary kernels run
// on the device, one launch per direction pair, exactly like the CUDA
// port's update_halo kernels.
func (c *Chunk) HaloExchange(fields []driver.FieldID, depth int) {
	nx, ny, stride := c.nx, c.ny, c.stride
	for _, id := range fields {
		buf := c.byID[id]
		// X faces: one thread per (halo layer, interior row).
		gx := simgpu.GridFor(depth, ny, c.block)
		c.dev.Launch("update_halo_x", gx, c.block, simgpu.Args(buf),
			func(b simgpu.Block, a [][]float64) {
				f := a[0]
				b.ForThreads(func(k, gy int) {
					if k >= depth || gy >= ny {
						return
					}
					row := (gy + halo) * stride
					f[row+halo-1-k] = f[row+halo+k]       // left: f[-1-k] = f[k]
					f[row+halo+nx+k] = f[row+halo+nx-1-k] // right: f[nx+k] = f[nx-1-k]
				})
			})
		// Y faces over the full width including x halos.
		width := nx + 2*depth
		gy := simgpu.GridFor(width, depth, c.block)
		c.dev.Launch("update_halo_y", gy, c.block, simgpu.Args(buf),
			func(b simgpu.Block, a [][]float64) {
				f := a[0]
				b.ForThreads(func(t, k int) {
					if t >= width || k >= depth {
						return
					}
					i := halo - depth + t
					f[(halo-1-k)*stride+i] = f[(halo+k)*stride+i]       // bottom
					f[(halo+ny+k)*stride+i] = f[(halo+ny-1-k)*stride+i] // top
				})
			})
	}
}

// SolveInit implements driver.Kernels.
func (c *Chunk) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	c.precond = precond
	nx, ny, stride := c.nx, c.ny, c.stride
	// u = u0 = energy1 * density and the coefficient source, full extent.
	recip := coef == config.RecipConductivity
	c.launch("tea_leaf_init_u", 0, nx+2*halo, ny+2*halo,
		simgpu.Args(c.density, c.energy1, c.u, c.u0, c.w),
		func(a [][]float64, lo, hi int) {
			kern.InitRow(a[2][lo:hi], a[3][lo:hi], a[4][lo:hi], a[1][lo:hi], a[0][lo:hi], recip)
		})
	// Face coefficients over one ring beyond the interior.
	c.launch("tea_leaf_init_k", halo-1, nx+2, ny+2, simgpu.Args(c.w, c.kx, c.ky),
		func(a [][]float64, lo, hi int) { kern.FaceCoefAt(a[1], a[2], a[0], rx, ry, stride, lo, hi) })
	c.CalcResidual()
	if precond == config.PrecondJacDiag {
		c.interior("tea_leaf_init_mi", simgpu.Args(c.kx, c.ky, c.mi),
			func(a [][]float64, lo, hi int) { kern.DiagInvAt(a[2], a[0], a[1], stride, lo, hi) })
	}
	if precond != config.PrecondNone {
		c.ApplyPrecond()
	}
}

// launchOperator launches dst = A src over the interior.
func (c *Chunk) launchOperator(name string, dst, src *simgpu.Buffer) {
	c.interior(name, simgpu.Args(src, dst, c.kx, c.ky),
		func(a [][]float64, lo, hi int) { kern.OperatorAt(a[1], a[0], a[2], a[3], c.stride, lo, hi) })
}

// CalcResidual implements driver.Kernels.
func (c *Chunk) CalcResidual() {
	c.launchOperator("tea_leaf_w_u", c.w, c.u)
	c.interior("tea_leaf_residual", simgpu.Args(c.u0, c.w, c.r),
		func(a [][]float64, lo, hi int) { kern.Sub(a[2][lo:hi], a[0][lo:hi], a[1][lo:hi]) })
}

// dot launches the block-reduced interior dot product of two fields.
func (c *Chunk) dot(name string, x, y *simgpu.Buffer) float64 {
	return c.reduceInterior(name, simgpu.Args(x, y),
		func(a [][]float64, lo, hi int, acc *float64) { *acc = kern.DotAcc(*acc, a[0][lo:hi], a[1][lo:hi]) })
}

// Norm2R implements driver.Kernels.
func (c *Chunk) Norm2R() float64 { return c.dot("norm2_r", c.r, c.r) }

// DotRZ implements driver.Kernels.
func (c *Chunk) DotRZ() float64 { return c.dot("dot_rz", c.r, c.z) }

// ApplyPrecond implements driver.Kernels. The jac_block path launches one
// thread per mesh row, each running a serial Thomas solve along x — the
// standard CUDA formulation of batched line solves.
func (c *Chunk) ApplyPrecond() {
	if c.precond == config.PrecondJacBlock {
		nx, ny, stride := c.nx, c.ny, c.stride
		c.dev.Launch("block_solve", simgpu.GridFor(ny, 1, c.block), c.block,
			simgpu.Args(c.r, c.z, c.kx, c.ky, c.tcp, c.tdp),
			func(b simgpu.Block, a [][]float64) {
				b.ForRows(ny, 1, func(_, j0, j1 int) {
					for j := j0; j < j1; j++ {
						lo := (j+halo)*stride + halo
						kern.ThomasAt(a[1], a[0], a[2], a[3], a[4], a[5], stride, lo, lo+nx)
					}
				})
			})
		return
	}
	c.interior("apply_precond", simgpu.Args(c.mi, c.r, c.z),
		func(a [][]float64, lo, hi int) { kern.Mul(a[2][lo:hi], a[0][lo:hi], a[1][lo:hi]) })
}

// precondSrc is the field CG and Chebyshev take their direction from.
func (c *Chunk) precondSrc(precond bool) *simgpu.Buffer {
	if precond {
		return c.z
	}
	return c.r
}

// CGInitP implements driver.Kernels.
func (c *Chunk) CGInitP(precond bool) float64 {
	return c.reduceInterior("cg_init_p", simgpu.Args(c.precondSrc(precond), c.p, c.r),
		func(a [][]float64, lo, hi int, acc *float64) {
			*acc = kern.CopyDot(*acc, a[1][lo:hi], a[0][lo:hi], a[2][lo:hi])
		})
}

// CGCalcW implements driver.Kernels: one reducing launch evaluates w = A p
// and accumulates p·w, so p and w are not read back from device memory for
// a separate dot launch.
func (c *Chunk) CGCalcW() float64 {
	return c.reduceInterior("cg_calc_w", simgpu.Args(c.p, c.w, c.kx, c.ky),
		func(a [][]float64, lo, hi int, acc *float64) {
			kern.OperatorAt(a[1], a[0], a[2], a[3], c.stride, lo, hi)
			*acc = kern.DotAcc(*acc, a[0][lo:hi], a[1][lo:hi])
		})
}

// CGCalcUR implements driver.Kernels: one reducing launch updates u and r,
// applies the diagonal preconditioner z = mi·r when there is one, and
// accumulates r·z (r·r unpreconditioned). The jac_block line solve needs
// whole rows of the updated r, which a block's row segment cannot provide,
// so that preconditioner runs as the update launch, then ApplyPrecond and
// DotRZ.
func (c *Chunk) CGCalcUR(alpha float64, precond bool) float64 {
	lineSolve := precond && c.precond == config.PrecondJacBlock
	rrn := c.reduceInterior("cg_calc_ur", simgpu.Args(c.u, c.p, c.r, c.w, c.mi, c.z),
		func(a [][]float64, lo, hi int, acc *float64) {
			r, z := a[2][lo:hi], a[5][lo:hi]
			kern.UpdateUR(a[0][lo:hi], a[1][lo:hi], r, a[3][lo:hi], alpha)
			switch {
			case !precond:
				*acc = kern.DotAcc(*acc, r, r)
			case !lineSolve:
				kern.Mul(z, a[4][lo:hi], r)
				*acc = kern.DotAcc(*acc, r, z)
			}
		})
	if lineSolve {
		c.ApplyPrecond()
		return c.DotRZ()
	}
	return rrn
}

// CGCalcP implements driver.Kernels.
func (c *Chunk) CGCalcP(beta float64, precond bool) {
	c.interior("cg_calc_p", simgpu.Args(c.precondSrc(precond), c.p),
		func(a [][]float64, lo, hi int) { kern.XPBY(a[1][lo:hi], a[0][lo:hi], beta) })
}

// JacobiCopyU implements driver.Kernels.
func (c *Chunk) JacobiCopyU() { c.dev.MemcpyD2D(c.un, c.u, c.stride*c.rows) }

// JacobiIterate implements driver.Kernels.
func (c *Chunk) JacobiIterate() float64 {
	return c.reduceInterior("jacobi_iterate", simgpu.Args(c.un, c.u0, c.kx, c.ky, c.u),
		func(a [][]float64, lo, hi int, acc *float64) {
			*acc = kern.JacobiAt(*acc, a[4], a[0], a[1], a[2], a[3], c.stride, lo, hi)
		})
}

// ChebyInit implements driver.Kernels.
func (c *Chunk) ChebyInit(theta float64, precond bool) {
	c.interior("cheby_init", simgpu.Args(c.precondSrc(precond), c.sd, c.u),
		func(a [][]float64, lo, hi int) { kern.ChebyInitRow(a[1][lo:hi], a[2][lo:hi], a[0][lo:hi], theta) })
}

// ChebyIterate implements driver.Kernels.
func (c *Chunk) ChebyIterate(alpha, beta float64, precond bool) {
	c.launchOperator("cheby_w_sd", c.w, c.sd)
	c.interior("cheby_update_r", simgpu.Args(c.r, c.w),
		func(a [][]float64, lo, hi int) { kern.Sub(a[0][lo:hi], a[0][lo:hi], a[1][lo:hi]) })
	if precond {
		c.ApplyPrecond()
	}
	c.interior("cheby_update_sd_u", simgpu.Args(c.precondSrc(precond), c.sd, c.u),
		func(a [][]float64, lo, hi int) { kern.ChebyRow(a[1][lo:hi], a[2][lo:hi], a[0][lo:hi], alpha, beta) })
}

// PPCGInitInner implements driver.Kernels.
func (c *Chunk) PPCGInitInner(theta float64) {
	c.interior("ppcg_init_inner", simgpu.Args(c.r, c.rtemp, c.z, c.sd),
		func(a [][]float64, lo, hi int) {
			kern.PPCGInitRow(a[1][lo:hi], a[2][lo:hi], a[3][lo:hi], a[0][lo:hi], theta)
		})
}

// PPCGInnerIterate implements driver.Kernels. Two launches: the operator
// application must complete before any thread rewrites sd.
func (c *Chunk) PPCGInnerIterate(alpha, beta float64) {
	c.launchOperator("ppcg_w_sd", c.w, c.sd)
	c.interior("ppcg_inner_update", simgpu.Args(c.z, c.sd, c.rtemp, c.w),
		func(a [][]float64, lo, hi int) {
			kern.PPCGInnerRow(a[0][lo:hi], a[1][lo:hi], a[2][lo:hi], a[3][lo:hi], alpha, beta)
		})
}

// PPCGFinishInner implements driver.Kernels.
func (c *Chunk) PPCGFinishInner() {
	c.interior("ppcg_finish_inner", simgpu.Args(c.z, c.sd),
		func(a [][]float64, lo, hi int) { kern.Add(a[0][lo:hi], a[1][lo:hi]) })
}

// SolveFinalise implements driver.Kernels.
func (c *Chunk) SolveFinalise() {
	c.interior("tea_leaf_finalise", simgpu.Args(c.u, c.density, c.energy1),
		func(a [][]float64, lo, hi int) { kern.Div(a[2][lo:hi], a[0][lo:hi], a[1][lo:hi]) })
}

// FetchField implements driver.Kernels: a device-to-host copy followed by
// interior extraction.
func (c *Chunk) FetchField(id driver.FieldID) []float64 {
	host := make([]float64, c.stride*c.rows)
	c.dev.MemcpyD2H(host, c.byID[id])
	out := make([]float64, 0, c.nx*c.ny)
	for j := 0; j < c.ny; j++ {
		row := (j + halo) * c.stride
		out = append(out, host[row+halo:row+halo+c.nx]...)
	}
	return out
}

// RestoreField implements driver.Kernels: copy the field down, patch
// the interior on the host, copy it back up — FetchField's inverse.
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) {
	buf := c.byID[id]
	host := make([]float64, c.stride*c.rows)
	c.dev.MemcpyD2H(host, buf) // preserve halo cells around the patched interior
	for j := 0; j < c.ny; j++ {
		row := (j + halo) * c.stride
		copy(host[row+halo:row+halo+c.nx], data[j*c.nx:(j+1)*c.nx])
	}
	c.dev.MemcpyH2D(buf, host)
}

// Close implements driver.Kernels.
func (c *Chunk) Close() { c.dev.Close() }
