// Package hostchunk is the one host-resident TeaLeaf chunk behind the manual
// serial, OpenMP, OpenACC and MPI versions: the field set and every
// driver.Kernels body, written once over grid.Field rows with the per-row
// arithmetic in internal/kern. What distinguishes those versions is not the
// kernels but two policies the chunk is built from: how rows are handed out
// (Rows) and what a chunk boundary means (Halo). Each port is a constructor
// plus its policy.
package hostchunk

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/kern"
	"github.com/warwick-hpsc/tealeaf-go/internal/state"
)

// Rows is the row policy: it runs a body over the row range [lo, hi). Bodies
// take a half-open sub-range, so a policy decides only how the range is
// split; a reduction body threads one accumulator through its sub-range and
// the policy combines the per-share results in share order. *par.Team is a
// Rows as it stands. Each reducing kernel calls ReduceSum or ReduceSum2
// exactly once per total it returns, so a distributed policy (the MPI
// port's) can complete the combination across ranks there.
type Rows interface {
	For(lo, hi int, body func(j0, j1 int))
	ReduceSum(lo, hi int, body func(j0, j1 int) float64) float64
	ReduceSum2(lo, hi int, body func(j0, j1 int) (float64, float64)) (float64, float64)
}

// Serial is the single-threaded row policy: every loop is one direct call
// over the whole range.
type Serial struct{}

// For implements Rows.
func (Serial) For(lo, hi int, body func(j0, j1 int)) { body(lo, hi) }

// ReduceSum implements Rows.
func (Serial) ReduceSum(lo, hi int, body func(j0, j1 int) float64) float64 { return body(lo, hi) }

// ReduceSum2 implements Rows.
func (Serial) ReduceSum2(lo, hi int, body func(j0, j1 int) (float64, float64)) (float64, float64) {
	return body(lo, hi)
}

// Halo is the halo policy: Update fills depth halo layers of one field.
type Halo interface {
	Update(f *grid.Field, id driver.FieldID, depth int)
}

// Reflective is the single-chunk halo policy: every side is a physical
// boundary, so the exchange reduces to the reflective boundary condition of
// the update_halo kernel, its side loops handed out by Rows.
type Reflective struct{ Rows }

// Update implements Halo.
func (h Reflective) Update(f *grid.Field, _ driver.FieldID, depth int) {
	Reflect(h.Rows, f, depth, AllSides)
}

// Sides names chunk faces as a bit set.
type Sides uint8

// The four faces of a chunk.
const (
	Left Sides = 1 << iota
	Right
	Down
	Up
	AllSides = Left | Right | Down | Up
)

// Reflect applies reflective boundary conditions to depth halo layers of f
// on the given sides: x faces first over the interior rows, then y faces
// over the widened column range so corners mirror the x halos, like the
// mini-app's update_halo ordering. A distributed port calls it once per
// exchange phase with the sides that have no neighbour.
func Reflect(rows Rows, f *grid.Field, depth int, s Sides) {
	nx, ny, d := f.Nx, f.Ny, f.Depth
	if s&(Left|Right) != 0 {
		rows.For(0, ny, func(j0, j1 int) {
			for j := j0; j < j1; j++ {
				row := f.Row(j)
				for k := 1; k <= depth; k++ {
					if s&Left != 0 {
						row[d-k] = row[d+k-1] // f[-k] = f[k-1]
					}
					if s&Right != 0 {
						row[d+nx-1+k] = row[d+nx-k] // f[nx-1+k] = f[nx-k]
					}
				}
			}
		})
	}
	if s&(Down|Up) != 0 {
		lo, hi := d-depth, d+nx+depth
		rows.For(1, depth+1, func(k0, k1 int) {
			for k := k0; k < k1; k++ {
				if s&Down != 0 {
					copy(f.Row(-k)[lo:hi], f.Row(k - 1)[lo:hi])
				}
				if s&Up != 0 {
					copy(f.Row(ny - 1 + k)[lo:hi], f.Row(ny - k)[lo:hi])
				}
			}
		})
	}
}

// Chunk is one host-resident chunk: all fields with halo depth 2 and the
// driver.Kernels bodies (everything but Name and Close, which belong to the
// port).
type Chunk struct {
	rows Rows
	halo Halo

	mesh    *grid.Mesh
	nx, ny  int
	cells   int // allocated cells over all fields, halos included
	precond config.Preconditioner

	density, energy0, energy1 *grid.Field
	u, u0                     *grid.Field
	p, r, w, z, sd, mi        *grid.Field
	kx, ky                    *grid.Field
	un, rtemp, tcp, tdp       *grid.Field
	fieldsByID                [driver.NumFields]*grid.Field
}

// New creates a chunk from its two policies.
func New(rows Rows, halo Halo) *Chunk { return &Chunk{rows: rows, halo: halo} }

// Generate implements driver.Kernels on the chunk's own (sub-)mesh.
func (c *Chunk) Generate(m *grid.Mesh, states []config.State) error {
	c.mesh = m
	c.nx, c.ny = m.Nx, m.Ny
	c.cells = 0
	alloc := func() *grid.Field {
		f := grid.New(c.nx, c.ny)
		c.cells += f.TotalCells()
		return f
	}
	c.density, c.energy0, c.energy1 = alloc(), alloc(), alloc()
	c.u, c.u0 = alloc(), alloc()
	c.p, c.r, c.w, c.z, c.sd, c.mi = alloc(), alloc(), alloc(), alloc(), alloc(), alloc()
	c.kx, c.ky = alloc(), alloc()
	c.un, c.rtemp = alloc(), alloc()
	c.tcp, c.tdp = alloc(), alloc()
	c.fieldsByID = [driver.NumFields]*grid.Field{
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
	return state.Generate(m, states, grid.DefaultHalo, func(i, j int, density, energy float64) {
		c.density.Set(i, j, density)
		c.energy0.Set(i, j, energy)
	})
}

// Field returns the storage of an exchangeable field.
func (c *Chunk) Field(id driver.FieldID) *grid.Field { return c.fieldsByID[id] }

// AllocatedCells returns the cells allocated over all fields, halos
// included: the chunk's resident footprint in float64s.
func (c *Chunk) AllocatedCells() int { return c.cells }

// forRows runs body for each interior row on the row policy.
func (c *Chunk) forRows(body func(j int)) {
	c.rows.For(0, c.ny, func(j0, j1 int) {
		for j := j0; j < j1; j++ {
			body(j)
		}
	})
}

// copyField copies src into dst, halos included.
func (c *Chunk) copyField(dst, src *grid.Field) {
	c.rows.For(-dst.Depth, c.ny+dst.Depth, func(j0, j1 int) {
		for j := j0; j < j1; j++ {
			copy(dst.Row(j), src.Row(j))
		}
	})
}

// SetField implements driver.Kernels.
func (c *Chunk) SetField() { c.copyField(c.energy1, c.energy0) }

// ResetField implements driver.Kernels.
func (c *Chunk) ResetField() { c.copyField(c.energy0, c.energy1) }

// FieldSummary implements driver.Kernels in two sweeps (volume+mass,
// internal energy+temperature); each total keeps its own accumulator.
func (c *Chunk) FieldSummary() driver.Totals {
	cellVol := c.mesh.CellVolume()
	var t driver.Totals
	t.Volume, t.Mass = c.rows.ReduceSum2(0, c.ny, func(j0, j1 int) (vol, mass float64) {
		for j := j0; j < j1; j++ {
			vol, mass = kern.VolMass(vol, mass, c.density.InteriorRow(j), cellVol)
		}
		return vol, mass
	})
	t.InternalEnergy, t.Temperature = c.rows.ReduceSum2(0, c.ny, func(j0, j1 int) (ie, temp float64) {
		for j := j0; j < j1; j++ {
			ie, temp = kern.EnergyTemp(ie, temp,
				c.density.InteriorRow(j), c.energy0.InteriorRow(j), c.u.InteriorRow(j), cellVol)
		}
		return ie, temp
	})
	return t
}

// HaloExchange implements driver.Kernels through the halo policy.
func (c *Chunk) HaloExchange(fields []driver.FieldID, depth int) {
	for _, id := range fields {
		c.halo.Update(c.fieldsByID[id], id, depth)
	}
}

// SolveInit implements driver.Kernels (the tea_leaf_common_init kernel).
func (c *Chunk) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	c.precond = precond
	d := c.w.Depth
	// u, u0 and the coefficient source w over the full halo'd extent (valid
	// to depth 2 after the energy/density exchange).
	c.rows.For(-d, c.ny+d, func(j0, j1 int) {
		for j := j0; j < j1; j++ {
			kern.InitRow(c.u.Row(j), c.u0.Row(j), c.w.Row(j), c.energy1.Row(j), c.density.Row(j),
				coef != config.Conductivity)
		}
	})
	// Face coefficients over one ring beyond the interior.
	c.rows.For(-1, c.ny+1, func(j0, j1 int) {
		for j := j0; j < j1; j++ {
			kern.FaceCoefRow(c.kx.Row(j), c.ky.Row(j), c.w.Row(j), c.w.Row(j-1), rx, ry, d, c.nx)
		}
	})
	c.CalcResidual()
	if precond == config.PrecondJacDiag {
		c.forRows(func(j int) {
			kern.DiagInvRow(c.mi.Row(j), c.kx.Row(j), c.ky.Row(j), c.ky.Row(j+1), d, c.nx)
		})
	}
	if precond != config.PrecondNone {
		c.ApplyPrecond()
	}
}

// operatorRow evaluates row j of dst = A src: the matrix-free five-point
// conduction operator every Krylov kernel shares.
func (c *Chunk) operatorRow(dst, src *grid.Field, j int) {
	kern.OperatorRow(dst.Row(j), src.Row(j), src.Row(j+1), src.Row(j-1),
		c.kx.Row(j), c.ky.Row(j), c.ky.Row(j+1), src.Depth, c.nx)
}

// precondRow sets row j of z = M⁻¹ r: diagonal scaling, or for jac_block the
// row's own Thomas solve (rows are independent, so it needs no halo).
func (c *Chunk) precondRow(j int) {
	if c.precond == config.PrecondJacBlock {
		kern.ThomasRow(c.z.Row(j), c.r.Row(j), c.kx.Row(j), c.ky.Row(j), c.ky.Row(j+1),
			c.tcp.Row(j), c.tdp.Row(j), c.r.Depth, c.nx)
		return
	}
	kern.Mul(c.z.InteriorRow(j), c.mi.InteriorRow(j), c.r.InteriorRow(j))
}

// dot returns sum(a*b) over the interior.
func (c *Chunk) dot(a, b *grid.Field) float64 {
	return c.rows.ReduceSum(0, c.ny, func(j0, j1 int) (s float64) {
		for j := j0; j < j1; j++ {
			s = kern.DotAcc(s, a.InteriorRow(j), b.InteriorRow(j))
		}
		return s
	})
}

// precondSrc is the field CG and Chebyshev take their direction from.
func (c *Chunk) precondSrc(precond bool) *grid.Field {
	if precond {
		return c.z
	}
	return c.r
}

// CalcResidual implements driver.Kernels: r = u0 - A u.
func (c *Chunk) CalcResidual() {
	c.forRows(func(j int) {
		c.operatorRow(c.w, c.u, j)
		kern.Sub(c.r.InteriorRow(j), c.u0.InteriorRow(j), c.w.InteriorRow(j))
	})
}

// Norm2R implements driver.Kernels.
func (c *Chunk) Norm2R() float64 { return c.dot(c.r, c.r) }

// DotRZ implements driver.Kernels.
func (c *Chunk) DotRZ() float64 { return c.dot(c.r, c.z) }

// ApplyPrecond implements driver.Kernels: z = M⁻¹ r with the configured
// preconditioner.
func (c *Chunk) ApplyPrecond() { c.forRows(c.precondRow) }

// CGInitP implements driver.Kernels.
func (c *Chunk) CGInitP(precond bool) float64 {
	src := c.precondSrc(precond)
	return c.rows.ReduceSum(0, c.ny, func(j0, j1 int) (rro float64) {
		for j := j0; j < j1; j++ {
			rro = kern.CopyDot(rro, c.p.InteriorRow(j), src.InteriorRow(j), c.r.InteriorRow(j))
		}
		return rro
	})
}

// CGCalcW implements driver.Kernels: w = A p, returns p·w. Each row's
// operator evaluation is followed by that row's contribution to the dot, so
// p and w are dotted while still cache-resident.
func (c *Chunk) CGCalcW() float64 {
	return c.rows.ReduceSum(0, c.ny, func(j0, j1 int) (pw float64) {
		for j := j0; j < j1; j++ {
			c.operatorRow(c.w, c.p, j)
			pw = kern.DotAcc(pw, c.p.InteriorRow(j), c.w.InteriorRow(j))
		}
		return pw
	})
}

// CGCalcUR implements driver.Kernels in one sweep: per row, the u/r update,
// the preconditioner application (both kinds need only the row's own
// updated r) and the r·z (or r·r) contribution, where the update, then
// ApplyPrecond, then DotRZ would take three. Rows run in the order and the
// shares combine in the order DotRZ's would, so the result is bitwise the
// same as that sequence's.
func (c *Chunk) CGCalcUR(alpha float64, precond bool) float64 {
	return c.rows.ReduceSum(0, c.ny, func(j0, j1 int) (s float64) {
		for j := j0; j < j1; j++ {
			rr := c.r.InteriorRow(j)
			kern.UpdateUR(c.u.InteriorRow(j), c.p.InteriorRow(j), rr, c.w.InteriorRow(j), alpha)
			if !precond {
				s = kern.DotAcc(s, rr, rr)
				continue
			}
			c.precondRow(j)
			s = kern.DotAcc(s, rr, c.z.InteriorRow(j))
		}
		return s
	})
}

// CGCalcP implements driver.Kernels.
func (c *Chunk) CGCalcP(beta float64, precond bool) {
	src := c.precondSrc(precond)
	c.forRows(func(j int) { kern.XPBY(c.p.InteriorRow(j), src.InteriorRow(j), beta) })
}

// JacobiCopyU implements driver.Kernels.
func (c *Chunk) JacobiCopyU() { c.copyField(c.un, c.u) }

// JacobiIterate implements driver.Kernels.
func (c *Chunk) JacobiIterate() float64 {
	return c.rows.ReduceSum(0, c.ny, func(j0, j1 int) (err float64) {
		for j := j0; j < j1; j++ {
			err = kern.JacobiRow(err, c.u.Row(j), c.un.Row(j), c.un.Row(j+1), c.un.Row(j-1),
				c.u0.Row(j), c.kx.Row(j), c.ky.Row(j), c.ky.Row(j+1), c.u.Depth, c.nx)
		}
		return err
	})
}

// ChebyInit implements driver.Kernels.
func (c *Chunk) ChebyInit(theta float64, precond bool) {
	src := c.precondSrc(precond)
	c.forRows(func(j int) {
		kern.ChebyInitRow(c.sd.InteriorRow(j), c.u.InteriorRow(j), src.InteriorRow(j), theta)
	})
}

// ChebyIterate implements driver.Kernels.
func (c *Chunk) ChebyIterate(alpha, beta float64, precond bool) {
	// r -= A sd
	c.forRows(func(j int) {
		c.operatorRow(c.w, c.sd, j)
		kern.Sub(c.r.InteriorRow(j), c.r.InteriorRow(j), c.w.InteriorRow(j))
	})
	if precond {
		c.ApplyPrecond()
	}
	src := c.precondSrc(precond)
	c.forRows(func(j int) {
		kern.ChebyRow(c.sd.InteriorRow(j), c.u.InteriorRow(j), src.InteriorRow(j), alpha, beta)
	})
}

// PPCGInitInner implements driver.Kernels.
func (c *Chunk) PPCGInitInner(theta float64) {
	c.forRows(func(j int) {
		kern.PPCGInitRow(c.rtemp.InteriorRow(j), c.z.InteriorRow(j), c.sd.InteriorRow(j), c.r.InteriorRow(j), theta)
	})
}

// PPCGInnerIterate implements driver.Kernels. The operator application and
// the sd update are separate loops: fused, one share could rewrite an sd row
// another share's stencil still needs.
func (c *Chunk) PPCGInnerIterate(alpha, beta float64) {
	c.forRows(func(j int) { c.operatorRow(c.w, c.sd, j) })
	c.forRows(func(j int) {
		kern.PPCGInnerRow(c.z.InteriorRow(j), c.sd.InteriorRow(j), c.rtemp.InteriorRow(j), c.w.InteriorRow(j), alpha, beta)
	})
}

// PPCGFinishInner implements driver.Kernels.
func (c *Chunk) PPCGFinishInner() {
	c.forRows(func(j int) { kern.Add(c.z.InteriorRow(j), c.sd.InteriorRow(j)) })
}

// SolveFinalise implements driver.Kernels: energy1 = u / density.
func (c *Chunk) SolveFinalise() {
	c.forRows(func(j int) {
		kern.Div(c.energy1.InteriorRow(j), c.u.InteriorRow(j), c.density.InteriorRow(j))
	})
}

// FetchField implements driver.Kernels for the chunk's own interior (a plain
// host copy, not a kernel: it bypasses the row policy).
func (c *Chunk) FetchField(id driver.FieldID) []float64 {
	f := c.fieldsByID[id]
	out := make([]float64, 0, c.nx*c.ny)
	for j := 0; j < c.ny; j++ {
		out = append(out, f.InteriorRow(j)...)
	}
	return out
}

// RestoreWindow is the write-path inverse of FetchField, used by checkpoint
// rollback. data is a row-major slab whose rows are stride apart and whose
// first element is the chunk's cell (0, 0): a rank passes its window of the
// global slab.
func (c *Chunk) RestoreWindow(id driver.FieldID, data []float64, stride int) {
	f := c.fieldsByID[id]
	for j := 0; j < c.ny; j++ {
		copy(f.InteriorRow(j), data[j*stride:j*stride+c.nx])
	}
}

// RestoreField implements driver.FieldRestorer for a chunk that is the whole
// mesh.
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) { c.RestoreWindow(id, data, c.nx) }
