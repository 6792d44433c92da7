// Package rajaport is TeaLeaf re-engineered on the RAJA-like portability
// layer (internal/raja), the analogue of the paper's RAJA builds: fields
// stay raw flat arrays allocated by the execution policy, and every kernel
// is a lambda handed to RAJA::kernel/forall-style dispatchers, with typed
// sum reductions. Swapping the policy object retargets the whole port
// between sequential, OpenMP-style and simulated-CUDA execution. Field
// kernels are row-policy lambdas (raja.Kernel2DRow) over the internal/kern
// row bodies; the halo faces stay per-point Kernel2D lambdas.
package rajaport

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/kern"
	"github.com/warwick-hpsc/tealeaf-go/internal/raja"
	"github.com/warwick-hpsc/tealeaf-go/internal/state"
)

const halo = grid.DefaultHalo

// Chunk is the RAJA port: one chunk, fields as policy-allocated flat
// arrays addressed (j+halo)*stride + i + halo.
type Chunk struct {
	pol     raja.ExecPolicy
	name    string
	mesh    *grid.Mesh
	nx, ny  int
	stride  int
	precond config.Preconditioner

	density, energy0, energy1 []float64
	u, u0                     []float64
	p, r, w, z, sd, mi        []float64
	kx, ky                    []float64
	un, rtemp, tcp, tdp       []float64
	byID                      [driver.NumFields][]float64
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
	return &Chunk{pol: pol, name: name}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string { return c.name }

// at is the flat index of cell (i, j).
func (c *Chunk) at(i, j int) int { return (j+halo)*c.stride + i + halo }

// rows/cols are the interior segments.
func (c *Chunk) rows() raja.RangeSegment { return raja.RangeSegment{Begin: 0, End: c.ny} }
func (c *Chunk) cols() raja.RangeSegment { return raja.RangeSegment{Begin: 0, End: c.nx} }

// Generate implements driver.Kernels.
func (c *Chunk) Generate(m *grid.Mesh, states []config.State) error {
	c.mesh = m
	c.nx, c.ny = m.Nx, m.Ny
	c.stride = c.nx + 2*halo
	n := c.stride * (c.ny + 2*halo)
	alloc := func() []float64 { return c.pol.Alloc(n) }
	c.density, c.energy0, c.energy1 = alloc(), alloc(), alloc()
	c.u, c.u0 = alloc(), alloc()
	c.p, c.r, c.w = alloc(), alloc(), alloc()
	c.z, c.sd, c.mi = alloc(), alloc(), alloc()
	c.kx, c.ky = alloc(), alloc()
	c.un, c.rtemp = alloc(), alloc()
	c.tcp, c.tdp = alloc(), alloc()
	c.byID = [driver.NumFields][]float64{
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
	host := make([]float64, 2*n)
	hd, he := host[:n], host[n:]
	if err := state.Generate(m, states, halo, func(i, j int, density, energy float64) {
		hd[c.at(i, j)] = density
		he[c.at(i, j)] = energy
	}); err != nil {
		return err
	}
	// Initialisation copy into policy memory, expressed as kernels so the
	// data lands device-side under the CUDA policy.
	c.copyField("generate_copyin_density", c.density, hd)
	c.copyField("generate_copyin_energy", c.energy0, he)
	return nil
}

// forRows runs seg under the row policy over rows x cols, one call per
// contiguous run of a row with the run's flat index range [lo, hi).
func (c *Chunk) forRows(name string, rows, cols raja.RangeSegment, seg func(lo, hi int)) {
	raja.Kernel2DRow(c.pol, name, rows, cols, func(j, i0, i1 int) { seg(c.at(i0, j), c.at(i1, j)) })
}

// interior is forRows over the interior cells.
func (c *Chunk) interior(name string, seg func(lo, hi int)) { c.forRows(name, c.rows(), c.cols(), seg) }

// full is forRows over every cell, halos included.
func (c *Chunk) full(name string, seg func(lo, hi int)) {
	c.forRows(name, raja.RangeSegment{Begin: -halo, End: c.ny + halo}, raja.RangeSegment{Begin: -halo, End: c.nx + halo}, seg)
}

// reduceInterior is interior with a sum reduction: seg adds its run's terms
// to *sum left to right.
func (c *Chunk) reduceInterior(name string, seg func(lo, hi int, sum *float64)) float64 {
	return raja.Kernel2DRowReduce(c.pol, name, c.rows(), c.cols(), func(j, i0, i1 int, sum *float64) {
		seg(c.at(i0, j), c.at(i1, j), sum)
	})
}

// operator sets dst = A src on cells [lo, hi) of one mesh row.
func (c *Chunk) operator(dst, src []float64, lo, hi int) {
	kern.OperatorAt(dst, src, c.kx, c.ky, c.stride, lo, hi)
}

// copyField copies src into dst, halos included.
func (c *Chunk) copyField(name string, dst, src []float64) {
	c.full(name, func(lo, hi int) { copy(dst[lo:hi], src[lo:hi]) })
}

// SetField implements driver.Kernels.
func (c *Chunk) SetField() { c.copyField("set_field", c.energy1, c.energy0) }

// ResetField implements driver.Kernels.
func (c *Chunk) ResetField() { c.copyField("reset_field", c.energy0, c.energy1) }

// FieldSummary implements driver.Kernels.
func (c *Chunk) FieldSummary() driver.Totals {
	vol := c.mesh.CellVolume()
	d, e, u := c.density, c.energy0, c.u
	var t driver.Totals
	t.Volume = float64(c.nx) * float64(c.ny) * vol
	t.Mass = c.reduceInterior("summary_mass", func(lo, hi int, s *float64) {
		_, *s = kern.VolMass(0, *s, d[lo:hi], vol)
	})
	t.InternalEnergy = c.reduceInterior("summary_ie", func(lo, hi int, s *float64) {
		*s, _ = kern.EnergyTemp(*s, 0, d[lo:hi], e[lo:hi], u[lo:hi], vol)
	})
	t.Temperature = c.reduceInterior("summary_temp", func(lo, hi int, s *float64) {
		_, *s = kern.EnergyTemp(0, *s, d[lo:hi], e[lo:hi], u[lo:hi], vol)
	})
	return t
}

// HaloExchange implements driver.Kernels.
func (c *Chunk) HaloExchange(fields []driver.FieldID, depth int) {
	nx, ny := c.nx, c.ny
	for _, id := range fields {
		f := c.byID[id]
		raja.Kernel2D(c.pol, "halo_x", c.rows(), raja.RangeSegment{Begin: 0, End: depth},
			func(j, k int) {
				f[c.at(-1-k, j)] = f[c.at(k, j)]
				f[c.at(nx+k, j)] = f[c.at(nx-1-k, j)]
			})
		raja.Kernel2D(c.pol, "halo_y", raja.RangeSegment{Begin: 0, End: depth},
			raja.RangeSegment{Begin: -depth, End: nx + depth},
			func(k, i int) {
				f[c.at(i, -1-k)] = f[c.at(i, k)]
				f[c.at(i, ny+k)] = f[c.at(i, ny-1-k)]
			})
	}
}

// SolveInit implements driver.Kernels.
func (c *Chunk) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	c.precond = precond
	recip := coef == config.RecipConductivity
	d, e1, u, u0, w := c.density, c.energy1, c.u, c.u0, c.w
	c.full("tea_leaf_init", func(lo, hi int) {
		kern.InitRow(u[lo:hi], u0[lo:hi], w[lo:hi], e1[lo:hi], d[lo:hi], recip)
	})
	// Face coefficients over one ring beyond the interior.
	kx, ky, stride := c.kx, c.ky, c.stride
	ring := raja.RangeSegment{Begin: -1, End: c.ny + 1}
	ringX := raja.RangeSegment{Begin: -1, End: c.nx + 1}
	c.forRows("init_kx_ky", ring, ringX, func(lo, hi int) { kern.FaceCoefAt(kx, ky, w, rx, ry, stride, lo, hi) })
	c.CalcResidual()
	if precond == config.PrecondJacDiag {
		mi := c.mi
		c.interior("init_mi", func(lo, hi int) { kern.DiagInvAt(mi, kx, ky, stride, lo, hi) })
	}
	if precond != config.PrecondNone {
		c.ApplyPrecond()
	}
}

// CalcResidual implements driver.Kernels.
func (c *Chunk) CalcResidual() {
	u, u0, r, w := c.u, c.u0, c.r, c.w
	c.interior("residual", func(lo, hi int) {
		c.operator(w, u, lo, hi)
		kern.Sub(r[lo:hi], u0[lo:hi], w[lo:hi])
	})
}

// dot is the interior dot product of two fields.
func (c *Chunk) dot(name string, a, b []float64) float64 {
	return c.reduceInterior(name, func(lo, hi int, s *float64) { *s = kern.DotAcc(*s, a[lo:hi], b[lo:hi]) })
}

// Norm2R implements driver.Kernels.
func (c *Chunk) Norm2R() float64 { return c.dot("norm2_r", c.r, c.r) }

// DotRZ implements driver.Kernels.
func (c *Chunk) DotRZ() float64 { return c.dot("dot_rz", c.r, c.z) }

// ApplyPrecond implements driver.Kernels. The jac_block path is a forall
// over rows, each lambda invocation running the Thomas solve for its row.
func (c *Chunk) ApplyPrecond() {
	r, z := c.r, c.z
	if c.precond == config.PrecondJacBlock {
		nx, stride := c.nx, c.stride
		kx, ky, cp, dp := c.kx, c.ky, c.tcp, c.tdp
		raja.ForAllN(c.pol, "block_solve", c.rows(), func(j int) {
			kern.ThomasAt(z, r, kx, ky, cp, dp, stride, c.at(0, j), c.at(nx, j))
		})
		return
	}
	mi := c.mi
	c.interior("apply_precond", func(lo, hi int) { kern.Mul(z[lo:hi], mi[lo:hi], r[lo:hi]) })
}

// precondSrc is the field CG and Chebyshev take their direction from.
func (c *Chunk) precondSrc(precond bool) []float64 {
	if precond {
		return c.z
	}
	return c.r
}

// CGInitP implements driver.Kernels.
func (c *Chunk) CGInitP(precond bool) float64 {
	src, r, p := c.precondSrc(precond), c.r, c.p
	return c.reduceInterior("cg_init_p", func(lo, hi int, s *float64) {
		*s = kern.CopyDot(*s, p[lo:hi], src[lo:hi], r[lo:hi])
	})
}

// CGCalcW implements driver.Kernels: one Kernel2DRowReduce evaluates the
// operator and the p·w dot in a single sweep.
func (c *Chunk) CGCalcW() float64 {
	p, w := c.p, c.w
	return c.reduceInterior("cg_calc_w", func(lo, hi int, s *float64) {
		c.operator(w, p, lo, hi)
		*s = kern.DotAcc(*s, p[lo:hi], w[lo:hi])
	})
}

// CGCalcUR implements driver.Kernels: one Kernel2DRowReduce updates u and r,
// applies the diagonal preconditioner z = mi·r when there is one, and
// accumulates r·z (r·r unpreconditioned). The jac_block line solve needs
// whole rows of the updated r, so that preconditioner runs as the update,
// then ApplyPrecond and DotRZ.
func (c *Chunk) CGCalcUR(alpha float64, precond bool) float64 {
	u, p, r, w, mi, z := c.u, c.p, c.r, c.w, c.mi, c.z
	lineSolve := precond && c.precond == config.PrecondJacBlock
	rrn := c.reduceInterior("cg_calc_ur", func(lo, hi int, s *float64) {
		kern.UpdateUR(u[lo:hi], p[lo:hi], r[lo:hi], w[lo:hi], alpha)
		switch {
		case !precond:
			*s = kern.DotAcc(*s, r[lo:hi], r[lo:hi])
		case !lineSolve:
			kern.Mul(z[lo:hi], mi[lo:hi], r[lo:hi])
			*s = kern.DotAcc(*s, r[lo:hi], z[lo:hi])
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
	src, p := c.precondSrc(precond), c.p
	c.interior("cg_calc_p", func(lo, hi int) { kern.XPBY(p[lo:hi], src[lo:hi], beta) })
}

// JacobiCopyU implements driver.Kernels.
func (c *Chunk) JacobiCopyU() { c.copyField("jacobi_copy_u", c.un, c.u) }

// JacobiIterate implements driver.Kernels.
func (c *Chunk) JacobiIterate() float64 {
	un, u0, u, kx, ky, stride := c.un, c.u0, c.u, c.kx, c.ky, c.stride
	return c.reduceInterior("jacobi_solve", func(lo, hi int, s *float64) {
		*s = kern.JacobiAt(*s, u, un, u0, kx, ky, stride, lo, hi)
	})
}

// ChebyInit implements driver.Kernels.
func (c *Chunk) ChebyInit(theta float64, precond bool) {
	src, sd, u := c.precondSrc(precond), c.sd, c.u
	c.interior("cheby_init", func(lo, hi int) { kern.ChebyInitRow(sd[lo:hi], u[lo:hi], src[lo:hi], theta) })
}

// ChebyIterate implements driver.Kernels.
func (c *Chunk) ChebyIterate(alpha, beta float64, precond bool) {
	sd, r, u, w := c.sd, c.r, c.u, c.w
	c.interior("cheby_calc_r", func(lo, hi int) {
		c.operator(w, sd, lo, hi)
		kern.Sub(r[lo:hi], r[lo:hi], w[lo:hi])
	})
	if precond {
		c.ApplyPrecond()
	}
	src := c.precondSrc(precond)
	c.interior("cheby_calc_sd_u", func(lo, hi int) { kern.ChebyRow(sd[lo:hi], u[lo:hi], src[lo:hi], alpha, beta) })
}

// PPCGInitInner implements driver.Kernels.
func (c *Chunk) PPCGInitInner(theta float64) {
	r, rt, z, sd := c.r, c.rtemp, c.z, c.sd
	c.interior("ppcg_init_inner", func(lo, hi int) {
		kern.PPCGInitRow(rt[lo:hi], z[lo:hi], sd[lo:hi], r[lo:hi], theta)
	})
}

// PPCGInnerIterate implements driver.Kernels (two kernels: the stencil
// must see the previous sd everywhere before it is rewritten).
func (c *Chunk) PPCGInnerIterate(alpha, beta float64) {
	sd, w, z, rt := c.sd, c.w, c.z, c.rtemp
	c.interior("ppcg_calc_w", func(lo, hi int) { c.operator(w, sd, lo, hi) })
	c.interior("ppcg_inner_update", func(lo, hi int) {
		kern.PPCGInnerRow(z[lo:hi], sd[lo:hi], rt[lo:hi], w[lo:hi], alpha, beta)
	})
}

// PPCGFinishInner implements driver.Kernels.
func (c *Chunk) PPCGFinishInner() {
	z, sd := c.z, c.sd
	c.interior("ppcg_finish_inner", func(lo, hi int) { kern.Add(z[lo:hi], sd[lo:hi]) })
}

// SolveFinalise implements driver.Kernels.
func (c *Chunk) SolveFinalise() {
	u, d, e1 := c.u, c.density, c.energy1
	c.interior("finalise", func(lo, hi int) { kern.Div(e1[lo:hi], u[lo:hi], d[lo:hi]) })
}

// FetchField implements driver.Kernels.
func (c *Chunk) FetchField(id driver.FieldID) []float64 {
	f := c.byID[id]
	out := make([]float64, 0, c.nx*c.ny)
	for j := 0; j < c.ny; j++ {
		row := (j + halo) * c.stride
		out = append(out, f[row+halo:row+halo+c.nx]...)
	}
	return out
}

// RestoreField implements driver.FieldRestorer: the write-path inverse of
// FetchField, used by checkpoint rollback.
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) {
	f := c.byID[id]
	for j := 0; j < c.ny; j++ {
		row := (j + halo) * c.stride
		copy(f[row+halo:row+halo+c.nx], data[j*c.nx:(j+1)*c.nx])
	}
}

// Close implements driver.Kernels.
func (c *Chunk) Close() { c.pol.Close() }
