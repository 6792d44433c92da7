// Package kokkosport is TeaLeaf re-engineered on the Kokkos-like template
// layer (internal/kokkos), the analogue of the paper's Kokkos builds.
// Every field is a rank-2 View whose layout follows the execution space
// (LayoutRight on the host spaces, LayoutLeft on the device space), every
// kernel a functor over an MDRange, and initial data reaches the device
// through host mirrors and deep copies. Field kernels are team-policy
// functors (kokkos.TeamFor / TeamReduce) handing View.Segment slices of one
// stride-1 line — a mesh row or, under LayoutLeft, a mesh column — to the
// internal/kern row bodies; the halo faces, and the jac_block solve where it
// runs across the lines, stay per-point ParallelFor functors.
package kokkosport

import (
	"strings"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/kern"
	"github.com/warwick-hpsc/tealeaf-go/internal/kokkos"
	"github.com/warwick-hpsc/tealeaf-go/internal/state"
)

const halo = grid.DefaultHalo

// Chunk is the Kokkos port: one chunk, fields as space-resident Views.
// View index 0 is the mesh row (y) and index 1 the column (x), both offset
// by the halo depth.
type Chunk struct {
	space   kokkos.ExecSpace
	name    string
	mesh    *grid.Mesh
	nx, ny  int
	precond config.Preconditioner

	density, energy0, energy1 *kokkos.View
	u, u0                     *kokkos.View
	p, r, w, z, sd, mi        *kokkos.View
	kx, ky                    *kokkos.View
	un, rtemp, tcp, tdp       *kokkos.View
	byID                      [driver.NumFields]*kokkos.View

	// kAlong and kAcross are kx and ky by role: the face coefficients
	// between neighbours along a stride-1 line of the views and between
	// neighbouring lines. Lines are mesh rows on the host spaces (kx, ky)
	// and mesh columns on the device space (ky, kx).
	kAlong, kAcross *kokkos.View
}

var _ driver.Kernels = (*Chunk)(nil)

// New creates the port on the given execution space. The port owns the
// space and closes it.
func New(space kokkos.ExecSpace) *Chunk {
	return &Chunk{space: space, name: "kokkos-" + strings.ToLower(space.Name())}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string { return c.name }

// Space exposes the execution space, for tests and reporting.
func (c *Chunk) Space() kokkos.ExecSpace { return c.space }

// Generate implements driver.Kernels: stage density/energy on host mirrors
// and deep-copy into the space, the canonical Kokkos initialisation.
func (c *Chunk) Generate(m *grid.Mesh, states []config.State) error {
	c.mesh = m
	c.nx, c.ny = m.Nx, m.Ny
	n0, n1 := c.ny+2*halo, c.nx+2*halo
	alloc := func(label string) *kokkos.View { return kokkos.NewView(c.space, label, n0, n1) }
	c.density, c.energy0, c.energy1 = alloc("density"), alloc("energy0"), alloc("energy1")
	c.u, c.u0 = alloc("u"), alloc("u0")
	c.p, c.r, c.w = alloc("p"), alloc("r"), alloc("w")
	c.z, c.sd, c.mi = alloc("z"), alloc("sd"), alloc("mi")
	c.kx, c.ky = alloc("kx"), alloc("ky")
	c.un, c.rtemp = alloc("un"), alloc("rtemp")
	c.tcp, c.tdp = alloc("tcp"), alloc("tdp")
	c.byID = [driver.NumFields]*kokkos.View{
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
	c.kAlong, c.kAcross = c.kx, c.ky
	if c.columnLines() {
		c.kAlong, c.kAcross = c.ky, c.kx
	}
	hd := kokkos.CreateMirror(c.density)
	he := kokkos.CreateMirror(c.energy0)
	err := state.Generate(m, states, halo, func(i, j int, density, energy float64) {
		hd.Set(j+halo, i+halo, density)
		he.Set(j+halo, i+halo, energy)
	})
	if err != nil {
		return err
	}
	kokkos.DeepCopy(c.density, hd)
	kokkos.DeepCopy(c.energy0, he)
	return nil
}

// columnLines reports whether the views' stride-1 lines are mesh columns
// (LayoutLeft) rather than mesh rows.
func (c *Chunk) columnLines() bool { return c.space.DefaultLayout() == kokkos.LayoutLeft }

// interior is the MDRange over interior cells.
func (c *Chunk) interior() kokkos.MDRange {
	return kokkos.MDRange{B0: halo, E0: halo + c.ny, B1: halo, E1: halo + c.nx}
}

// full is the MDRange over the whole padded extent.
func (c *Chunk) full() kokkos.MDRange {
	return kokkos.MDRange{B0: 0, E0: c.ny + 2*halo, B1: 0, E1: c.nx + 2*halo}
}

// seg is the operand of one team functor call: cells [lo, hi) of stride-1
// line o of the views.
type seg struct{ o, lo, hi int }

// of is the segment's cells of v.
func (s seg) of(v *kokkos.View) []float64 { return v.Segment(s.o, s.lo, s.hi) }

// wide is the segment's cells of v on the line do lines away, one cell wider
// at each end: the operand form of the kern row bodies that read a cell's
// neighbours along the line, which then take d = 1.
func (s seg) wide(v *kokkos.View, do int) []float64 { return v.Segment(s.o+do, s.lo-1, s.hi+1) }

// teamFor runs f over the range under the team policy.
func (c *Chunk) teamFor(name string, p kokkos.MDRange, f func(s seg)) {
	kokkos.TeamFor(c.space, name, p, func(o, lo, hi int) { f(seg{o, lo, hi}) })
}

// teamReduce sums over the interior under the team policy; f adds its
// segment's terms to *l left to right.
func (c *Chunk) teamReduce(name string, f func(s seg, l *float64)) float64 {
	return kokkos.TeamReduce(c.space, name, c.interior(), func(o, lo, hi int, l *float64) { f(seg{o, lo, hi}, l) })
}

// operator sets dst = A src on the segment.
func (c *Chunk) operator(dst, src *kokkos.View, s seg) {
	kern.OperatorRow(s.wide(dst, 0), s.wide(src, 0), s.wide(src, 1), s.wide(src, -1),
		s.wide(c.kAlong, 0), s.wide(c.kAcross, 0), s.wide(c.kAcross, 1), 1, s.hi-s.lo)
}

// copyView copies src into dst, halos included.
func (c *Chunk) copyView(name string, dst, src *kokkos.View) {
	c.teamFor(name, c.full(), func(s seg) { copy(s.of(dst), s.of(src)) })
}

// SetField implements driver.Kernels.
func (c *Chunk) SetField() { c.copyView("set_field", c.energy1, c.energy0) }

// ResetField implements driver.Kernels.
func (c *Chunk) ResetField() { c.copyView("reset_field", c.energy0, c.energy1) }

// FieldSummary implements driver.Kernels: one TeamReduce per summed
// quantity, matching the Kokkos port's one reduction per total.
func (c *Chunk) FieldSummary() driver.Totals {
	vol := c.mesh.CellVolume()
	d, e, u := c.density, c.energy0, c.u
	var t driver.Totals
	t.Volume = float64(c.nx) * float64(c.ny) * vol
	t.Mass = c.teamReduce("summary_mass", func(s seg, l *float64) {
		_, *l = kern.VolMass(0, *l, s.of(d), vol)
	})
	t.InternalEnergy = c.teamReduce("summary_ie", func(s seg, l *float64) {
		*l, _ = kern.EnergyTemp(*l, 0, s.of(d), s.of(e), s.of(u), vol)
	})
	t.Temperature = c.teamReduce("summary_temp", func(s seg, l *float64) {
		_, *l = kern.EnergyTemp(0, *l, s.of(d), s.of(e), s.of(u), vol)
	})
	return t
}

// HaloExchange implements driver.Kernels: reflective boundaries as
// ParallelFor functors, space-resident like every other kernel.
func (c *Chunk) HaloExchange(fields []driver.FieldID, depth int) {
	nx, ny := c.nx, c.ny
	for _, id := range fields {
		f := c.byID[id]
		kokkos.ParallelFor(c.space, "halo_x",
			kokkos.MDRange{B0: halo, E0: halo + ny, B1: 0, E1: depth},
			func(j, k int) {
				f.Set(j, halo-1-k, f.At(j, halo+k))
				f.Set(j, halo+nx+k, f.At(j, halo+nx-1-k))
			})
		kokkos.ParallelFor(c.space, "halo_y",
			kokkos.MDRange{B0: 0, E0: depth, B1: halo - depth, E1: halo + nx + depth},
			func(k, i int) {
				f.Set(halo-1-k, i, f.At(halo+k, i))
				f.Set(halo+ny+k, i, f.At(halo+ny-1-k, i))
			})
	}
}

// SolveInit implements driver.Kernels.
func (c *Chunk) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	c.precond = precond
	recip := coef == config.RecipConductivity
	d, e1, u, u0, w := c.density, c.energy1, c.u, c.u0, c.w
	c.teamFor("tea_leaf_init", c.full(), func(s seg) {
		kern.InitRow(s.of(u), s.of(u0), s.of(w), s.of(e1), s.of(d), recip)
	})
	// Face coefficients over one ring beyond the interior. FaceCoefRow fills
	// cells [d-1, d+nx+1) of its lines: the segment, for d = 2 and nx two
	// short of its length.
	kAlong, kAcross := c.kAlong, c.kAcross
	rAlong, rAcross := rx, ry
	if c.columnLines() {
		rAlong, rAcross = ry, rx
	}
	ring := kokkos.MDRange{B0: halo - 1, E0: halo + c.ny + 1, B1: halo - 1, E1: halo + c.nx + 1}
	c.teamFor("init_kx_ky", ring, func(s seg) {
		kern.FaceCoefRow(s.wide(kAlong, 0), s.wide(kAcross, 0), s.wide(w, 0), s.wide(w, -1),
			rAlong, rAcross, 2, s.hi-s.lo-2)
	})
	c.CalcResidual()
	if precond == config.PrecondJacDiag {
		mi := c.mi
		c.teamFor("init_mi", c.interior(), func(s seg) {
			kern.DiagInvRow(s.wide(mi, 0), s.wide(kAlong, 0), s.wide(kAcross, 0), s.wide(kAcross, 1), 1, s.hi-s.lo)
		})
	}
	if precond != config.PrecondNone {
		c.ApplyPrecond()
	}
}

// CalcResidual implements driver.Kernels.
func (c *Chunk) CalcResidual() {
	u, u0, r, w := c.u, c.u0, c.r, c.w
	c.teamFor("residual", c.interior(), func(s seg) {
		c.operator(w, u, s)
		kern.Sub(s.of(r), s.of(u0), s.of(w))
	})
}

// dot is the interior dot product of two views.
func (c *Chunk) dot(name string, a, b *kokkos.View) float64 {
	return c.teamReduce(name, func(s seg, l *float64) { *l = kern.DotAcc(*l, s.of(a), s.of(b)) })
}

// Norm2R implements driver.Kernels.
func (c *Chunk) Norm2R() float64 { return c.dot("norm2_r", c.r, c.r) }

// DotRZ implements driver.Kernels.
func (c *Chunk) DotRZ() float64 { return c.dot("dot_rz", c.r, c.z) }

// ApplyPrecond implements driver.Kernels. The jac_block path solves one
// tridiagonal system per mesh row. Where lines are mesh rows the team
// functor's segment is the whole row and the shared Thomas body solves it;
// where they are columns it is a ParallelFor over rows (an MDRange with a
// unit second extent) whose functor walks its row point by point, which is
// how a Kokkos port expresses batched line solves.
func (c *Chunk) ApplyPrecond() {
	r, z, kx, ky, cp, dp := c.r, c.z, c.kx, c.ky, c.tcp, c.tdp
	switch {
	case c.precond != config.PrecondJacBlock:
		mi := c.mi
		c.teamFor("apply_precond", c.interior(), func(s seg) { kern.Mul(s.of(z), s.of(mi), s.of(r)) })
	case !c.columnLines():
		c.teamFor("block_solve", c.interior(), func(s seg) {
			kern.ThomasRow(s.wide(z, 0), s.wide(r, 0), s.wide(kx, 0), s.wide(ky, 0), s.wide(ky, 1),
				s.wide(cp, 0), s.wide(dp, 0), 1, s.hi-s.lo)
		})
	default:
		nx := c.nx
		rows := kokkos.MDRange{B0: halo, E0: halo + c.ny, B1: 0, E1: 1}
		kokkos.ParallelFor(c.space, "block_solve", rows, func(j, _ int) {
			diag := func(i int) float64 {
				return 1 + kx.At(j, i+1) + kx.At(j, i) + ky.At(j+1, i) + ky.At(j, i)
			}
			b0 := diag(halo)
			cp.Set(j, halo, -kx.At(j, halo+1)/b0)
			dp.Set(j, halo, r.At(j, halo)/b0)
			for i := halo + 1; i < halo+nx; i++ {
				av := -kx.At(j, i)
				m := 1 / (diag(i) - av*cp.At(j, i-1))
				cp.Set(j, i, -kx.At(j, i+1)*m)
				dp.Set(j, i, (r.At(j, i)-av*dp.At(j, i-1))*m)
			}
			last := halo + nx - 1
			z.Set(j, last, dp.At(j, last))
			for i := last - 1; i >= halo; i-- {
				z.Set(j, i, dp.At(j, i)-cp.At(j, i)*z.At(j, i+1))
			}
		})
	}
}

// precondSrc is the view CG and Chebyshev take their direction from.
func (c *Chunk) precondSrc(precond bool) *kokkos.View {
	if precond {
		return c.z
	}
	return c.r
}

// CGInitP implements driver.Kernels.
func (c *Chunk) CGInitP(precond bool) float64 {
	src, r, p := c.precondSrc(precond), c.r, c.p
	return c.teamReduce("cg_init_p", func(s seg, l *float64) {
		*l = kern.CopyDot(*l, s.of(p), s.of(src), s.of(r))
	})
}

// CGCalcW implements driver.Kernels: one TeamReduce evaluates the operator
// and the p·w dot in a single sweep.
func (c *Chunk) CGCalcW() float64 {
	p, w := c.p, c.w
	return c.teamReduce("cg_calc_w", func(s seg, l *float64) {
		c.operator(w, p, s)
		*l = kern.DotAcc(*l, s.of(p), s.of(w))
	})
}

// CGCalcUR implements driver.Kernels: one TeamReduce updates u and r, applies
// the diagonal preconditioner z = mi·r when there is one, and accumulates r·z
// (r·r unpreconditioned). The jac_block line solve needs whole rows of the
// updated r, so that preconditioner runs as the update, then ApplyPrecond and
// DotRZ.
func (c *Chunk) CGCalcUR(alpha float64, precond bool) float64 {
	u, p, r, w, mi, z := c.u, c.p, c.r, c.w, c.mi, c.z
	lineSolve := precond && c.precond == config.PrecondJacBlock
	rrn := c.teamReduce("cg_calc_ur", func(s seg, l *float64) {
		kern.UpdateUR(s.of(u), s.of(p), s.of(r), s.of(w), alpha)
		switch {
		case !precond:
			*l = kern.DotAcc(*l, s.of(r), s.of(r))
		case !lineSolve:
			kern.Mul(s.of(z), s.of(mi), s.of(r))
			*l = kern.DotAcc(*l, s.of(r), s.of(z))
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
	c.teamFor("cg_calc_p", c.interior(), func(s seg) { kern.XPBY(s.of(p), s.of(src), beta) })
}

// JacobiCopyU implements driver.Kernels.
func (c *Chunk) JacobiCopyU() { c.copyView("jacobi_copy_u", c.un, c.u) }

// JacobiIterate implements driver.Kernels.
func (c *Chunk) JacobiIterate() float64 {
	un, u0, u, kAlong, kAcross := c.un, c.u0, c.u, c.kAlong, c.kAcross
	return c.teamReduce("jacobi_solve", func(s seg, l *float64) {
		*l = kern.JacobiRow(*l, s.wide(u, 0), s.wide(un, 0), s.wide(un, 1), s.wide(un, -1), s.wide(u0, 0),
			s.wide(kAlong, 0), s.wide(kAcross, 0), s.wide(kAcross, 1), 1, s.hi-s.lo)
	})
}

// ChebyInit implements driver.Kernels.
func (c *Chunk) ChebyInit(theta float64, precond bool) {
	src, sd, u := c.precondSrc(precond), c.sd, c.u
	c.teamFor("cheby_init", c.interior(), func(s seg) { kern.ChebyInitRow(s.of(sd), s.of(u), s.of(src), theta) })
}

// ChebyIterate implements driver.Kernels.
func (c *Chunk) ChebyIterate(alpha, beta float64, precond bool) {
	sd, r, u, w := c.sd, c.r, c.u, c.w
	c.teamFor("cheby_calc_r", c.interior(), func(s seg) {
		c.operator(w, sd, s)
		kern.Sub(s.of(r), s.of(r), s.of(w))
	})
	if precond {
		c.ApplyPrecond()
	}
	src := c.precondSrc(precond)
	c.teamFor("cheby_calc_sd_u", c.interior(), func(s seg) {
		kern.ChebyRow(s.of(sd), s.of(u), s.of(src), alpha, beta)
	})
}

// PPCGInitInner implements driver.Kernels.
func (c *Chunk) PPCGInitInner(theta float64) {
	r, rt, z, sd := c.r, c.rtemp, c.z, c.sd
	c.teamFor("ppcg_init_inner", c.interior(), func(s seg) {
		kern.PPCGInitRow(s.of(rt), s.of(z), s.of(sd), s.of(r), theta)
	})
}

// PPCGInnerIterate implements driver.Kernels (two kernels: the stencil must
// see the previous sd everywhere before it is rewritten).
func (c *Chunk) PPCGInnerIterate(alpha, beta float64) {
	sd, w, z, rt := c.sd, c.w, c.z, c.rtemp
	c.teamFor("ppcg_calc_w", c.interior(), func(s seg) { c.operator(w, sd, s) })
	c.teamFor("ppcg_inner_update", c.interior(), func(s seg) {
		kern.PPCGInnerRow(s.of(z), s.of(sd), s.of(rt), s.of(w), alpha, beta)
	})
}

// PPCGFinishInner implements driver.Kernels.
func (c *Chunk) PPCGFinishInner() {
	z, sd := c.z, c.sd
	c.teamFor("ppcg_finish_inner", c.interior(), func(s seg) { kern.Add(s.of(z), s.of(sd)) })
}

// SolveFinalise implements driver.Kernels.
func (c *Chunk) SolveFinalise() {
	u, d, e1 := c.u, c.density, c.energy1
	c.teamFor("finalise", c.interior(), func(s seg) { kern.Div(s.of(e1), s.of(u), s.of(d)) })
}

// FetchField implements driver.Kernels: mirror + deep_copy + interior
// extraction, the canonical Kokkos read-back.
func (c *Chunk) FetchField(id driver.FieldID) []float64 {
	v := c.byID[id]
	host := kokkos.CreateMirror(v)
	kokkos.DeepCopy(host, v)
	out := make([]float64, 0, c.nx*c.ny)
	for j := 0; j < c.ny; j++ {
		out = append(out, host.Segment(j+halo, halo, halo+c.nx)...) // the mirror is LayoutRight
	}
	return out
}

// RestoreField implements driver.FieldRestorer: mirror + deep_copy down,
// patch the interior on the host mirror, deep_copy back — the canonical
// Kokkos write-back (the read-back's inverse).
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) {
	v := c.byID[id]
	host := kokkos.CreateMirror(v)
	kokkos.DeepCopy(host, v) // preserve halo cells around the patched interior
	for j := 0; j < c.ny; j++ {
		copy(host.Segment(j+halo, halo, halo+c.nx), data[j*c.nx:(j+1)*c.nx])
	}
	kokkos.DeepCopy(v, host)
}

// Close implements driver.Kernels.
func (c *Chunk) Close() { c.space.Close() }
