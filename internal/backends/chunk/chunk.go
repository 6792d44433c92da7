// Package chunk is the one TeaLeaf chunk behind all 17 versions: the field
// set, Generate and every driver.Kernels body, written once over flat field
// slices and the internal/kern row bodies. What distinguishes the versions is
// their execution policy and the paper's abstraction layer, which each port
// supplies as a three-method Policy: Host (grid.Fields on a thread team or the
// caller's goroutine) under the serial, OpenMP, OpenACC and MPI ports, each
// device port's own base API under CUDA, Kokkos and RAJA, and OPS ParLoops
// over dats under the six OPS versions. Each port is a constructor, its
// policy and its own host round trip (FetchField, RestoreField), except the
// distributed versions, which share the rank layer (Rank, rank.go).
//
// Every launch declares its reach: the box of cells around a window point
// that its body reads or writes. Only the OPS policy reads it, as the loop's
// stencil, which is what its tiling skew and bounds check are derived from;
// TestDeclaredReach holds every declaration to what its body touches.
//
// A field is a padded (ny+4)-by-(nx+4) array whose stride-1 lines are mesh
// rows, or mesh columns where the layer lays storage out column-major (the
// Kokkos device space's LayoutLeft). The chunk takes that orientation at
// construction and hands the row bodies their operands by role — the face
// coefficient along a line (kx on rows, ky on columns), the one across, and
// the line stride — so they read the cells a port written for that layout
// reads.
//
// Every reducing kernel makes exactly one Reduce per total it returns, and no
// other kernel reduces, so the rank layer completes each total across ranks
// inside Reduce.
package chunk

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/kern"
	"github.com/warwick-hpsc/tealeaf-go/internal/state"
)

const halo = grid.DefaultHalo

// Window is a launch's rectangle of cells [Y0, Y1) x [X0, X1) in padded
// mesh coordinates, rows by columns, and its Reach.
type Window struct {
	Y0, Y1, X0, X1 int
	Reach          Reach
}

// Reach is a box of cell offsets, rows Y0..Y1 by columns X0..X1 inclusive:
// every cell a launch's body reads or writes for one window point, across all
// its arguments. The zero Reach is a pointwise launch.
type Reach struct{ Y0, Y1, X0, X1 int }

// The stencil launches' reaches: the operator's five-point star and +1
// faces, the face coefficients' two cells per face, and the diagonal's two
// faces per axis.
var (
	opReach   = Reach{-1, 1, -1, 1}
	faceReach = Reach{-1, 0, -1, 0}
	diagReach = Reach{0, 1, 0, 1}
)

// Body is a For body, run on one segment: a holds the launch's fields as flat
// slices in argument order and [lo, hi) is the flat index range of a run of
// cells along one stride-1 line. RedBody is a Reduce body: it adds its
// segment's terms to acc left to right and returns it. (The segment is three
// arguments rather than one struct: passing the struct made a 128² manual-cuda
// run about 15 % slower on a 2-vCPU x86-64 host.)
type (
	Body    func(a [][]float64, lo, hi int)
	RedBody func(a [][]float64, lo, hi int, acc float64) float64
)

// Policy is what a layer supplies, F being its storage handle. Alloc returns
// n zeroed rows-by-cols fields. For runs body on every segment of the window
// in the order the layer visits its points; Reduce does the same with a sum,
// each thread share or block threading one accumulator through its segments
// and the partials combining in the layer's order. Each resolves args to
// slices for the launch and is done with args when it returns.
type Policy[F any] interface {
	Alloc(n, rows, cols int) []F
	For(name string, win Window, args []F, body Body)
	Reduce(name string, win Window, args []F, body RedBody) float64
}

// Field slots: the exchangeable fields at their driver.FieldID, then the
// chunk's scratch.
const (
	density, energy0, energy1 = driver.FieldDensity, driver.FieldEnergy0, driver.FieldEnergy1
	u, u0, p, r               = driver.FieldU, driver.FieldU0, driver.FieldP, driver.FieldR
	w, z, sd, kx, ky          = driver.FieldW, driver.FieldZ, driver.FieldSD, driver.FieldKx, driver.FieldKy
)

const (
	mi driver.FieldID = driver.NumFields + iota
	un
	rtemp
	tcp
	tdp
	numFields
)

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

// Chunk is one chunk in a layer's memory: every driver.Kernels body but Name,
// Close, FetchField and RestoreField, which belong to the port.
type Chunk[F any] struct {
	pol     Policy[F]
	columns bool
	// kAlong and kAcross are kx and ky by role: the face coefficients between
	// neighbours along a line and between neighbouring lines.
	kAlong, kAcross driver.FieldID

	mesh    *grid.Mesh
	nx, ny  int
	line    int // flat distance between neighbouring lines
	precond config.Preconditioner
	f       [numFields]F
	argv    [6]F // the launch argument list, reused by every launch
	mirror  [4]Body
	// factor and solve are block_solve's two bodies: SolveInit's, which
	// factors each row's tridiagonal block and solves it, and ApplyPrecond's,
	// which solves on those factors.
	factor, solve Body
}

// New creates a chunk on the policy; columns reports whether the layer's
// lines are mesh columns.
func New[F any](pol Policy[F], columns bool) *Chunk[F] {
	c := &Chunk[F]{pol: pol, columns: columns, kAlong: kx, kAcross: ky}
	if columns {
		c.kAlong, c.kAcross = ky, kx
	}
	return c
}

// Field returns the storage of an exchangeable field.
func (c *Chunk[F]) Field(id driver.FieldID) F { return c.f[id] }

// Interior returns the interior of a row-major padded copy of a field, row
// by row.
func (c *Chunk[F]) Interior(padded []float64) []float64 {
	out := make([]float64, 0, c.nx*c.ny)
	for j := halo; j < halo+c.ny; j++ {
		out = append(out, padded[j*(c.nx+2*halo)+halo:][:c.nx]...)
	}
	return out
}

// SetInterior is Interior's inverse: it writes data over the interior of a
// row-major padded copy of a field, leaving its halo as it is.
func (c *Chunk[F]) SetInterior(padded, data []float64) {
	for j := 0; j < c.ny; j++ {
		copy(padded[(j+halo)*(c.nx+2*halo)+halo:], data[j*c.nx:(j+1)*c.nx])
	}
}

// around is the interior grown by d cells on every side: 0 is the interior, 1
// the ring the face coefficients cover, halo the whole padded extent.
func (c *Chunk[F]) around(d int) Window {
	return Window{Y0: halo - d, Y1: halo + c.ny + d, X0: halo - d, X1: halo + c.nx + d}
}

// stencil is the interior as the window of a launch of reach r.
func (c *Chunk[F]) stencil(r Reach) Window {
	w := c.around(0)
	w.Reach = r
	return w
}

// AllocatedCells returns the cells allocated over all fields, halos
// included: the chunk's resident footprint in float64s.
func (c *Chunk[F]) AllocatedCells() int { return len(c.f) * (c.nx + 2*halo) * (c.ny + 2*halo) }

// args is a launch's argument list, in the chunk's one reusable list: a
// policy is done with it when the launch returns, and launches do not nest.
func (c *Chunk[F]) args(ids ...driver.FieldID) []F {
	a := c.argv[:len(ids)]
	for k, id := range ids {
		a[k] = c.f[id]
	}
	return a
}

// interior runs body over the interior.
func (c *Chunk[F]) interior(name string, args []F, body Body) {
	c.pol.For(name, c.around(0), args, body)
}

// reduce runs body over the interior with a sum reduction.
func (c *Chunk[F]) reduce(name string, args []F, body RedBody) float64 {
	return c.pol.Reduce(name, c.around(0), args, body)
}

// Generate implements driver.Kernels: allocate the fields through the layer
// and fill the initial state in its memory with one launch over the padded
// extent; no host copy is made.
func (c *Chunk[F]) Generate(m *grid.Mesh, states []config.State) error {
	if err := state.CheckBackground(states); err != nil {
		return err
	}
	c.mesh, c.nx, c.ny = m, m.Nx, m.Ny
	rows, cols := c.ny+2*halo, c.nx+2*halo
	c.line = cols
	if c.columns {
		c.line = rows
	}
	c.mirror = c.mirrors()
	c.factor, c.solve = c.lineSolves()
	copy(c.f[:], c.pol.Alloc(len(c.f), rows, cols))
	c.pol.For("generate_chunk", c.around(halo), c.args(density, energy0), func(a [][]float64, lo, hi int) {
		o, x := lo/c.line-halo, lo%c.line-halo
		if !c.columns {
			state.FillRow(m, states, o, x, a[0][lo:hi], a[1][lo:hi])
			return
		}
		for k := lo; k < hi; k++ { // a column segment: one row body call per point
			state.FillRow(m, states, x+k-lo, o, a[0][k:k+1], a[1][k:k+1])
		}
	})
	return nil
}

// copyField copies src into dst, halos included.
func (c *Chunk[F]) copyField(name string, dst, src driver.FieldID) {
	c.pol.For(name, c.around(halo), c.args(dst, src), func(a [][]float64, lo, hi int) {
		copy(a[0][lo:hi], a[1][lo:hi])
	})
}

// SetField implements driver.Kernels.
func (c *Chunk[F]) SetField() { c.copyField("set_field", energy1, energy0) }

// ResetField implements driver.Kernels.
func (c *Chunk[F]) ResetField() { c.copyField("reset_field", energy0, energy1) }

// JacobiCopyU implements driver.Kernels.
func (c *Chunk[F]) JacobiCopyU() { c.copyField("jacobi_copy_u", un, u) }

// FieldSummary implements driver.Kernels: one reduction per total. Volume is
// summed cell by cell, as the reference field_summary does, so a distributed
// policy's sum of the ranks' partials is the whole mesh's volume.
func (c *Chunk[F]) FieldSummary() driver.Totals {
	vol := c.mesh.CellVolume()
	var t driver.Totals
	t.Volume = c.reduce("summary_vol", c.args(density), func(a [][]float64, lo, hi int, acc float64) float64 {
		acc, _ = kern.VolMass(acc, 0, a[0][lo:hi], vol)
		return acc
	})
	t.Mass = c.reduce("summary_mass", c.args(density), func(a [][]float64, lo, hi int, acc float64) float64 {
		_, acc = kern.VolMass(0, acc, a[0][lo:hi], vol)
		return acc
	})
	t.InternalEnergy = c.reduce("summary_ie", c.args(density, energy0, u), func(a [][]float64, lo, hi int, acc float64) float64 {
		acc, _ = kern.EnergyTemp(acc, 0, a[0][lo:hi], a[1][lo:hi], a[2][lo:hi], vol)
		return acc
	})
	t.Temperature = c.reduce("summary_temp", c.args(density, energy0, u), func(a [][]float64, lo, hi int, acc float64) float64 {
		_, acc = kern.EnergyTemp(0, acc, a[0][lo:hi], a[1][lo:hi], a[2][lo:hi], vol)
		return acc
	})
	return t
}

// HaloExchange implements driver.Kernels for a chunk that is the whole mesh:
// every side is a physical boundary.
func (c *Chunk[F]) HaloExchange(fields []driver.FieldID, depth int) {
	for _, id := range fields {
		c.Reflect(id, depth, AllSides)
	}
}

// Reflect applies the reflective boundary condition to depth halo layers of
// a field on the given sides: one For launch per side over its halo cells,
// each copying the interior cell as far inside the boundary, so a side's
// reach runs 2·depth−1 cells inwards. The x sides go first and the y sides
// cover the widened columns, so corners mirror the x halos as in the
// mini-app's update_halo. A distributed port calls it in each exchange phase
// with the sides that have no neighbour.
func (c *Chunk[F]) Reflect(id driver.FieldID, depth int, s Sides) {
	x0, x1, y0, y1, m := halo, halo+c.nx, halo, halo+c.ny, 2*depth-1
	if s&Left != 0 {
		c.pol.For("update_halo_left", Window{y0, y1, x0 - depth, x0, Reach{0, 0, 0, m}}, c.args(id), c.mirror[0])
	}
	if s&Right != 0 {
		c.pol.For("update_halo_right", Window{y0, y1, x1, x1 + depth, Reach{0, 0, -m, 0}}, c.args(id), c.mirror[1])
	}
	if s&Down != 0 {
		c.pol.For("update_halo_bottom", Window{y0 - depth, y0, x0 - depth, x1 + depth, Reach{0, m, 0, 0}}, c.args(id), c.mirror[2])
	}
	if s&Up != 0 {
		c.pol.For("update_halo_top", Window{y1, y1 + depth, x0 - depth, x1 + depth, Reach{-m, 0, 0, 0}}, c.args(id), c.mirror[3])
	}
}

// mirrors binds Reflect's bodies once per Generate, so an exchange allocates
// none: per side (left, right, bottom, top), the mirror across its boundary
// b. Where b separates lines, a segment of line o is one copy of the same
// cells of line 2b−1−o; where it separates the positions along a line, the
// cell at position p takes the one at 2b−1−p. The x sides' boundaries cut
// across rows and the y sides' run along them, so the x sides mirror along
// the lines and the y sides across them, the reverse where lines are
// columns.
func (c *Chunk[F]) mirrors() [4]Body {
	line := c.line
	across := func(b int) Body {
		return func(a [][]float64, lo, hi int) {
			o := lo / line
			copy(a[0][lo:hi], a[0][lo+(2*b-1-2*o)*line:])
		}
	}
	along := func(b int) Body {
		return func(a [][]float64, lo, hi int) {
			f, m := a[0], 2*(lo-lo%line+b)-1
			for k := lo; k < hi; k++ {
				f[k] = f[m-k]
			}
		}
	}
	x, y := along, across
	if c.columns {
		x, y = across, along
	}
	return [4]Body{x(halo), x(halo + c.nx), y(halo), y(halo + c.ny)}
}

// SolveInit implements driver.Kernels.
func (c *Chunk[F]) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	c.precond = precond
	recip := coef == config.RecipConductivity
	args := c.args(density, energy1, u, u0, w)
	c.pol.For("tea_leaf_init", c.around(halo), args, func(a [][]float64, lo, hi int) {
		kern.InitRow(a[2][lo:hi], a[3][lo:hi], a[4][lo:hi], a[1][lo:hi], a[0][lo:hi], recip)
	})
	rAlong, rAcross := rx, ry
	if c.columns {
		rAlong, rAcross = ry, rx
	}
	ring := c.around(1)
	ring.Reach = faceReach
	c.pol.For("init_kx_ky", ring, c.args(c.kAlong, c.kAcross, w), func(a [][]float64, lo, hi int) {
		kern.FaceCoefAt(a[0], a[1], a[2], rAlong, rAcross, c.line, lo, hi)
	})
	c.CalcResidual()
	switch precond {
	case config.PrecondJacDiag:
		c.pol.For("init_mi", c.stencil(diagReach), c.args(mi, c.kAlong, c.kAcross), func(a [][]float64, lo, hi int) {
			kern.DiagInvAt(a[0], a[1], a[2], c.line, lo, hi)
		})
		c.ApplyPrecond()
	case config.PrecondJacBlock:
		c.blockSolve(c.factor)
	}
}

// CalcResidual implements driver.Kernels: w = A u, then r = u0 - w, in one
// sweep.
func (c *Chunk[F]) CalcResidual() {
	c.pol.For("residual", c.stencil(opReach), c.args(u, w, u0, r, c.kAlong, c.kAcross), func(a [][]float64, lo, hi int) {
		kern.OperatorSubAt(a[1], a[0], a[2], a[3], a[4], a[5], c.line, lo, hi)
	})
}

// dot is the interior dot product of two fields.
func (c *Chunk[F]) dot(name string, x, y driver.FieldID) float64 {
	return c.reduce(name, c.args(x, y), func(a [][]float64, lo, hi int, acc float64) float64 {
		return kern.DotAcc(acc, a[0][lo:hi], a[1][lo:hi])
	})
}

// Norm2R implements driver.Kernels.
func (c *Chunk[F]) Norm2R() float64 { return c.dot("norm2_r", r, r) }

// DotRZ implements driver.Kernels.
func (c *Chunk[F]) DotRZ() float64 { return c.dot("dot_rz", r, z) }

// ApplyPrecond implements driver.Kernels. The jac_block path replays the
// line solves on the factors SolveInit left in tcp and tdp, which every solve
// starts with, so they are never those of another kx and ky.
func (c *Chunk[F]) ApplyPrecond() {
	if c.precond != config.PrecondJacBlock {
		c.interior("apply_precond", c.args(z, mi, r), func(a [][]float64, lo, hi int) {
			kern.Mul(a[0][lo:hi], a[1][lo:hi], a[2][lo:hi])
		})
		return
	}
	c.blockSolve(c.solve)
}

// blockSolve runs one Thomas solve per mesh row, launched over the column of
// the rows' first interior cells. Its reach is the whole row and the next
// row's ky.
func (c *Chunk[F]) blockSolve(body Body) {
	first := Window{Y0: halo, Y1: halo + c.ny, X0: halo, X1: halo + 1, Reach: Reach{0, 1, 0, c.nx}}
	c.pol.For("block_solve", first, c.args(z, r, kx, ky, tcp, tdp), body)
}

// lineSolves binds block_solve's factor and solve bodies once per Generate.
// Where lines are rows a segment is one row's first cell and runs the kern
// row bodies along it; where they are columns it is a run of rows, each a
// strided walk along its row making the row bodies' IEEE operations in their
// order.
func (c *Chunk[F]) lineSolves() (factor, solve Body) {
	nx, line := c.nx, c.line
	if !c.columns {
		return func(a [][]float64, lo, hi int) {
				kern.ThomasFactorAt(a[0], a[1], a[2], a[3], a[4], a[5], line, lo, lo+nx)
			}, func(a [][]float64, lo, hi int) {
				kern.ThomasSolveAt(a[0], a[1], a[2], a[4], a[5], lo, lo+nx)
			}
	}
	walk := func(factor bool) Body {
		return func(a [][]float64, lo, hi int) {
			z, r, kx, ky, cp, m := a[0], a[1], a[2], a[3], a[4], a[5]
			for k := lo; k < hi; k++ {
				j := k % line
				at := func(i int) int { return i*line + j } // padded cell (j, i)
				if factor {
					diag := func(i int) float64 { return 1 + kx[at(i+1)] + kx[at(i)] + ky[at(i)+1] + ky[at(i)] }
					b0 := diag(halo)
					m[k] = b0
					cp[k] = -kx[at(halo+1)] / b0
					z[k] = r[k] / b0
					for i := halo + 1; i < halo+nx; i++ {
						av := -kx[at(i)]
						mi := 1 / (diag(i) - av*cp[at(i-1)])
						m[at(i)] = mi
						cp[at(i)] = -kx[at(i+1)] * mi
						z[at(i)] = (r[at(i)] - av*z[at(i-1)]) * mi
					}
				} else {
					z[k] = r[k] / m[k]
					for i := halo + 1; i < halo+nx; i++ {
						av := -kx[at(i)]
						z[at(i)] = (r[at(i)] - av*z[at(i-1)]) * m[at(i)]
					}
				}
				for i := halo + nx - 2; i >= halo; i-- {
					z[at(i)] -= cp[at(i)] * z[at(i+1)]
				}
			}
		}
	}
	return walk(true), walk(false)
}

// precondSrc is the field CG and Chebyshev take their direction from.
func precondSrc(precond bool) driver.FieldID {
	if precond {
		return z
	}
	return r
}

// CGInitP implements driver.Kernels.
func (c *Chunk[F]) CGInitP(precond bool) float64 {
	args := c.args(precondSrc(precond), p, r)
	return c.reduce("cg_init_p", args, func(a [][]float64, lo, hi int, acc float64) float64 {
		return kern.CopyDot(acc, a[1][lo:hi], a[0][lo:hi], a[2][lo:hi])
	})
}

// CGCalcW implements driver.Kernels: one reducing sweep evaluates w = A p and
// accumulates p·w.
func (c *Chunk[F]) CGCalcW() float64 {
	args := c.args(p, w, c.kAlong, c.kAcross)
	return c.pol.Reduce("cg_calc_w", c.stencil(opReach), args, func(a [][]float64, lo, hi int, acc float64) float64 {
		return kern.OperatorDotAt(acc, a[1], a[0], a[2], a[3], c.line, lo, hi)
	})
}

// CGCalcUR implements driver.Kernels: one reducing sweep updates u and r,
// applies the diagonal preconditioner z = mi·r when there is one, and
// accumulates r·z (r·r unpreconditioned). The jac_block line solve needs
// whole rows of the updated r, which a segment cannot provide, so that
// preconditioner runs as the update sweep, then ApplyPrecond, then DotRZ's
// one reduction.
func (c *Chunk[F]) CGCalcUR(alpha float64, precond bool) float64 {
	if precond && c.precond == config.PrecondJacBlock {
		c.interior("cg_calc_ur", c.args(u, p, r, w), func(a [][]float64, lo, hi int) {
			kern.UpdateUR(a[0][lo:hi], a[1][lo:hi], a[2][lo:hi], a[3][lo:hi], alpha)
		})
		c.ApplyPrecond()
		return c.DotRZ()
	}
	return c.reduce("cg_calc_ur", c.args(u, p, r, w, mi, z), func(a [][]float64, lo, hi int, acc float64) float64 {
		u, p, r, w := a[0][lo:hi], a[1][lo:hi], a[2][lo:hi], a[3][lo:hi]
		if !precond {
			return kern.UpdateURDot(acc, u, p, r, w, alpha)
		}
		return kern.UpdateURZDot(acc, u, p, r, w, a[4][lo:hi], a[5][lo:hi], alpha)
	})
}

// CGCalcP implements driver.Kernels.
func (c *Chunk[F]) CGCalcP(beta float64, precond bool) {
	c.interior("cg_calc_p", c.args(precondSrc(precond), p), func(a [][]float64, lo, hi int) {
		kern.XPBY(a[1][lo:hi], a[0][lo:hi], beta)
	})
}

// JacobiIterate implements driver.Kernels.
func (c *Chunk[F]) JacobiIterate() float64 {
	args := c.args(u, un, u0, c.kAlong, c.kAcross)
	return c.pol.Reduce("jacobi_solve", c.stencil(opReach), args, func(a [][]float64, lo, hi int, acc float64) float64 {
		return kern.JacobiAt(acc, a[0], a[1], a[2], a[3], a[4], c.line, lo, hi)
	})
}

// ChebyInit implements driver.Kernels.
func (c *Chunk[F]) ChebyInit(theta float64, precond bool) {
	c.interior("cheby_init", c.args(precondSrc(precond), sd, u), func(a [][]float64, lo, hi int) {
		kern.ChebyInitRow(a[1][lo:hi], a[2][lo:hi], a[0][lo:hi], theta)
	})
}

// ChebyIterate implements driver.Kernels: w = A sd, then r -= w, in one
// sweep; the preconditioner; then the sd and u update.
func (c *Chunk[F]) ChebyIterate(alpha, beta float64, precond bool) {
	c.pol.For("cheby_calc_r", c.stencil(opReach), c.args(sd, w, r, c.kAlong, c.kAcross), func(a [][]float64, lo, hi int) {
		kern.OperatorSubAt(a[1], a[0], a[2], a[2], a[3], a[4], c.line, lo, hi)
	})
	if precond {
		c.ApplyPrecond()
	}
	c.interior("cheby_calc_sd_u", c.args(precondSrc(precond), sd, u), func(a [][]float64, lo, hi int) {
		kern.ChebyRow(a[1][lo:hi], a[2][lo:hi], a[0][lo:hi], alpha, beta)
	})
}

// PPCGInitInner implements driver.Kernels.
func (c *Chunk[F]) PPCGInitInner(theta float64) {
	c.interior("ppcg_init_inner", c.args(r, rtemp, z, sd), func(a [][]float64, lo, hi int) {
		kern.PPCGInitRow(a[1][lo:hi], a[2][lo:hi], a[3][lo:hi], a[0][lo:hi], theta)
	})
}

// PPCGInnerIterate implements driver.Kernels (two sweeps: the operator must
// see the previous sd everywhere before any of it is rewritten).
func (c *Chunk[F]) PPCGInnerIterate(alpha, beta float64) {
	c.pol.For("ppcg_calc_w", c.stencil(opReach), c.args(sd, w, c.kAlong, c.kAcross), func(a [][]float64, lo, hi int) {
		kern.OperatorAt(a[1], a[0], a[2], a[3], c.line, lo, hi)
	})
	c.interior("ppcg_inner_update", c.args(z, sd, rtemp, w), func(a [][]float64, lo, hi int) {
		kern.PPCGInnerRow(a[0][lo:hi], a[1][lo:hi], a[2][lo:hi], a[3][lo:hi], alpha, beta)
	})
}

// PPCGFinishInner implements driver.Kernels.
func (c *Chunk[F]) PPCGFinishInner() {
	c.interior("ppcg_finish_inner", c.args(z, sd), func(a [][]float64, lo, hi int) {
		kern.Add(a[0][lo:hi], a[1][lo:hi])
	})
}

// SolveFinalise implements driver.Kernels.
func (c *Chunk[F]) SolveFinalise() {
	c.interior("tea_leaf_finalise", c.args(u, density, energy1), func(a [][]float64, lo, hi int) {
		kern.Div(a[2][lo:hi], a[0][lo:hi], a[1][lo:hi])
	})
}
