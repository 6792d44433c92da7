package opsport

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/kern"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/state"
)

// Stencils of the TeaLeaf kernels, declared once like the generated OPS
// code does. The halo mirrors (one per face and layer) and the whole-row
// stencils of block_solve (as long as the chunk is wide) are built once per
// rank in init.
var (
	sPoint = ops.S2D00
	s5pt   = ops.S2D5pt
	// sKxOp/sKyOp: the operator reads each face coefficient at the cell and
	// its +1 face.
	sKxOp = ops.S2D00P10
	sKyOp = ops.S2D00_0P1
	// sWFace: the coefficient kernel reads the cell and its -1 neighbours.
	sWFace = ops.NewStencil("w_faces", [2]int{0, 0}, [2]int{-1, 0}, [2]int{0, -1})
)

// mirror is the reflective-boundary loop of one halo layer on one face,
// declared once: the cell copies the interior cell the same distance inside
// the boundary, off = 2k-1 cells away for layer k.
type mirror struct {
	name    string
	stencil *ops.Stencil
	kernel  ops.RowKernel
}

func newMirror(name, stencil string, dx, dy int) mirror {
	return mirror{name, ops.NewStencil(stencil, [2]int{0, 0}, [2]int{dx, dy}),
		func(a []*ops.Acc, _ []float64, n int) { copy(a[0].Row(0, 0, n), a[0].Row(dx, dy, n)) }}
}

// rankState is one rank's OPS context, block and dats: the OPS port as a
// rank-local driver.Kernels, which allreduces its own partials.
type rankState struct {
	name     string
	tiling   bool
	rank     *comm.Rank
	ctx      *ops.Context
	chunk    comm.Chunk
	mesh     *grid.Mesh
	nx, ny   int
	gnx, gny int // global extent for field gathers
	precond  config.Preconditioner
	block    *ops.Block

	density, energy0, energy1 *ops.Dat
	u, u0                     *ops.Dat
	p, r, w, z, sd, mi        *ops.Dat
	kx, ky                    *ops.Dat
	un, rtemp, tcp, tdp       *ops.Dat
	byID                      [driver.NumFields]*ops.Dat

	// mirrors[dir][k-1] is the boundary loop of halo layer k on face dir.
	mirrors [numDirs][]mirror
	// sWholeRow/sWholeRowK: block_solve reaches the whole mesh row from its
	// first cell (and the row above, for ky).
	sWholeRow, sWholeRowK *ops.Stencil

	// Reusable scratch for halo strip packing/receiving, so steady-state
	// exchanges stay allocation-free.
	packBuf []float64
	recvBuf []float64
}

// Generate implements driver.Kernels: every rank derives the same global
// decomposition and declares and initialises its own chunk.
func (rs *rankState) Generate(global *grid.Mesh, states []config.State) error {
	if err := state.CheckBackground(states); err != nil {
		return err
	}
	ch := comm.Decompose(rs.rank.Size(), global.Nx, global.Ny).ChunkOf(rs.rank.ID(), global.Nx, global.Ny)
	rs.chunk = ch
	rs.gnx, rs.gny = global.Nx, global.Ny
	rs.mesh = global.Sub(ch.X0, ch.Y0, ch.NX, ch.NY)
	rs.nx, rs.ny = ch.NX, ch.NY
	rs.block = rs.ctx.DeclBlock("tea", rs.nx, rs.ny)
	dats := rs.block.DeclDats(grid.DefaultHalo, "density", "energy0", "energy1", "u", "u0",
		"p", "r", "w", "z", "sd", "mi", "kx", "ky", "un", "rtemp", "tcp", "tdp")
	rs.density, rs.energy0, rs.energy1, rs.u, rs.u0 = dats[0], dats[1], dats[2], dats[3], dats[4]
	rs.p, rs.r, rs.w, rs.z, rs.sd, rs.mi = dats[5], dats[6], dats[7], dats[8], dats[9], dats[10]
	rs.kx, rs.ky, rs.un, rs.rtemp, rs.tcp, rs.tdp = dats[11], dats[12], dats[13], dats[14], dats[15], dats[16]
	d := grid.DefaultHalo
	maxMsg := d * max(rs.ny, rs.nx+2*d)
	rs.packBuf = make([]float64, maxMsg)
	rs.recvBuf = make([]float64, maxMsg)
	rs.byID = [driver.NumFields]*ops.Dat{
		driver.FieldDensity: rs.density,
		driver.FieldEnergy0: rs.energy0,
		driver.FieldEnergy1: rs.energy1,
		driver.FieldU:       rs.u,
		driver.FieldU0:      rs.u0,
		driver.FieldP:       rs.p,
		driver.FieldR:       rs.r,
		driver.FieldW:       rs.w,
		driver.FieldZ:       rs.z,
		driver.FieldSD:      rs.sd,
		driver.FieldKx:      rs.kx,
		driver.FieldKy:      rs.ky,
	}
	rs.mirrors = [numDirs][]mirror{}
	for k := 1; k <= d; k++ {
		off := 2*k - 1
		rs.mirrors[dirWest] = append(rs.mirrors[dirWest], newMirror("halo_left", "mirror_xl", off, 0))
		rs.mirrors[dirEast] = append(rs.mirrors[dirEast], newMirror("halo_right", "mirror_xr", -off, 0))
		rs.mirrors[dirSouth] = append(rs.mirrors[dirSouth], newMirror("halo_bottom", "mirror_yl", 0, off))
		rs.mirrors[dirNorth] = append(rs.mirrors[dirNorth], newMirror("halo_top", "mirror_yr", 0, -off))
	}
	rs.sWholeRow = ops.NewStencil("whole_row", [2]int{0, 0}, [2]int{rs.nx, 0})
	rs.sWholeRowK = ops.NewStencil("whole_row_k", [2]int{0, 0}, [2]int{rs.nx, 0}, [2]int{rs.nx, 1}, [2]int{0, 1})
	// generate_chunk as a ParLoop with an index argument (ops_arg_idx): the
	// shared row body fills each row segment from its index, so the initial
	// condition is computed by whichever backend runs the loops — on the
	// CUDA backend it never touches the host at all.
	mesh := rs.mesh
	rs.ctx.ParLoopRow("generate_chunk", rs.block, rs.fullRange(),
		[]ops.Arg{
			ops.ArgIdx(),
			ops.ArgDat(rs.density, sPoint, ops.Write),
			ops.ArgDat(rs.energy0, sPoint, ops.Write),
		},
		func(a []*ops.Acc, _ []float64, n int) {
			state.FillRow(mesh, states, a[0].J, a[0].I, a[1].Row(0, 0, n), a[2].Row(0, 0, n))
		})
	rs.ctx.Flush()
	return nil
}

func (rs *rankState) interior() ops.Range { return ops.Range{XLo: 0, XHi: rs.nx, YLo: 0, YHi: rs.ny} }

func (rs *rankState) fullRange() ops.Range {
	return ops.Range{XLo: -2, XHi: rs.nx + 2, YLo: -2, YHi: rs.ny + 2}
}

// copyDat copies src into dst, halos included.
func (rs *rankState) copyDat(name string, dst, src *ops.Dat) {
	rs.ctx.ParLoopRow(name, rs.block, rs.fullRange(),
		[]ops.Arg{ops.ArgDat(src, sPoint, ops.Read), ops.ArgDat(dst, sPoint, ops.Write)},
		func(a []*ops.Acc, _ []float64, n int) { copy(a[1].Row(0, 0, n), a[0].Row(0, 0, n)) })
}

func (rs *rankState) SetField() { rs.copyDat("set_field", rs.energy1, rs.energy0) }

func (rs *rankState) ResetField() { rs.copyDat("reset_field", rs.energy0, rs.energy1) }

func (rs *rankState) FieldSummary() driver.Totals {
	vol := rs.mesh.CellVolume()
	red := rs.ctx.ParLoopRedDeferredRow("field_summary", rs.block, rs.interior(), 4,
		[]ops.Arg{
			ops.ArgDat(rs.density, sPoint, ops.Read),
			ops.ArgDat(rs.energy0, sPoint, ops.Read),
			ops.ArgDat(rs.u, sPoint, ops.Read),
		},
		func(a []*ops.Acc, red []float64, n int) {
			density := a[0].Row(0, 0, n)
			red[0], red[1] = kern.VolMass(red[0], red[1], density, vol)
			red[2], red[3] = kern.EnergyTemp(red[2], red[3], density, a[1].Row(0, 0, n), a[2].Row(0, 0, n), vol)
		}).Values()
	rs.rank.AllreduceVecInPlace(red)
	return driver.Totals{Volume: red[0], Mass: red[1], InternalEnergy: red[2], Temperature: red[3]}
}

// --- halo exchange ----------------------------------------------------------

const (
	dirWest = iota
	dirEast
	dirSouth
	dirNorth
	numDirs
)

func tag(fid driver.FieldID, dir int) int { return int(fid)*numDirs + dir }

func (rs *rankState) HaloExchange(fields []driver.FieldID, depth int) {
	// Packing reads dats on the host, so any deferred loops must land
	// before a rank with neighbours exchanges. A single-chunk run's
	// reflective boundary is pure ParLoops, so it stays queueable and a
	// tiled context can fuse across whole solver iterations.
	ch := rs.chunk
	hasNeighbour := ch.Left >= 0 || ch.Right >= 0 || ch.Down >= 0 || ch.Up >= 0
	if hasNeighbour {
		rs.ctx.Flush()
	}
	for _, id := range fields {
		rs.exchangeDat(rs.byID[id], id, depth, hasNeighbour)
	}
}

func (rs *rankState) exchangeDat(d *ops.Dat, fid driver.FieldID, depth int, hasNeighbour bool) {
	nx, ny := rs.nx, rs.ny
	ch := rs.chunk
	// X phase between ranks (host-resident backends only reach here with
	// neighbours; the CUDA variant is single-chunk).
	if ch.Left >= 0 {
		rs.rank.Send(ch.Left, tag(fid, dirWest), rs.packCols(d, 0, depth))
	}
	if ch.Right >= 0 {
		rs.rank.Send(ch.Right, tag(fid, dirEast), rs.packCols(d, nx-depth, depth))
	}
	if ch.Left >= 0 {
		n := rs.rank.RecvInto(ch.Left, tag(fid, dirEast), rs.recvBuf)
		rs.unpackCols(d, -depth, depth, rs.recvBuf[:n])
	} else {
		rs.reflect(d, depth, dirWest)
	}
	if ch.Right >= 0 {
		n := rs.rank.RecvInto(ch.Right, tag(fid, dirWest), rs.recvBuf)
		rs.unpackCols(d, nx, depth, rs.recvBuf[:n])
	} else {
		rs.reflect(d, depth, dirEast)
	}
	if hasNeighbour {
		rs.ctx.Flush() // reflective loops must land before the y-phase packs
	}
	// Y phase over the full width so corners carry diagonal data.
	if ch.Down >= 0 {
		rs.rank.Send(ch.Down, tag(fid, dirSouth), rs.packRows(d, 0, depth))
	}
	if ch.Up >= 0 {
		rs.rank.Send(ch.Up, tag(fid, dirNorth), rs.packRows(d, ny-depth, depth))
	}
	if ch.Down >= 0 {
		n := rs.rank.RecvInto(ch.Down, tag(fid, dirNorth), rs.recvBuf)
		rs.unpackRows(d, -depth, depth, rs.recvBuf[:n])
	} else {
		rs.reflect(d, depth, dirSouth)
	}
	if ch.Up >= 0 {
		n := rs.rank.RecvInto(ch.Up, tag(fid, dirSouth), rs.recvBuf)
		rs.unpackRows(d, ny, depth, rs.recvBuf[:n])
	} else {
		rs.reflect(d, depth, dirNorth)
	}
}

// reflect mirrors depth layers at the physical boundary on face dir, one
// ParLoop per layer so the boundary code is itself backend-portable (and
// device-resident on CUDA). The y faces run over the widened column range so
// corners mirror the x halos.
func (rs *rankState) reflect(d *ops.Dat, depth, dir int) {
	for k := 1; k <= depth; k++ {
		var r ops.Range
		switch dir {
		case dirWest:
			r = ops.Range{XLo: -k, XHi: -k + 1, YLo: 0, YHi: rs.ny}
		case dirEast:
			r = ops.Range{XLo: rs.nx - 1 + k, XHi: rs.nx + k, YLo: 0, YHi: rs.ny}
		case dirSouth:
			r = ops.Range{XLo: -depth, XHi: rs.nx + depth, YLo: -k, YHi: -k + 1}
		case dirNorth:
			r = ops.Range{XLo: -depth, XHi: rs.nx + depth, YLo: rs.ny - 1 + k, YHi: rs.ny + k}
		}
		m := rs.mirrors[dir][k-1]
		rs.ctx.ParLoopRow(m.name, rs.block, r, []ops.Arg{ops.ArgDat(d, m.stencil, ops.RW)}, m.kernel)
	}
}

func (rs *rankState) packCols(d *ops.Dat, i0, w int) []float64 {
	buf := rs.packBuf[:0]
	for j := 0; j < rs.ny; j++ {
		for k := 0; k < w; k++ {
			buf = append(buf, d.At(i0+k, j))
		}
	}
	return buf
}

func (rs *rankState) unpackCols(d *ops.Dat, i0, w int, buf []float64) {
	n := 0
	for j := 0; j < rs.ny; j++ {
		for k := 0; k < w; k++ {
			d.Set(i0+k, j, buf[n])
			n++
		}
	}
}

func (rs *rankState) packRows(d *ops.Dat, j0, h int) []float64 {
	depth := d.Depth()
	buf := rs.packBuf[:0]
	for k := 0; k < h; k++ {
		for i := -depth; i < rs.nx+depth; i++ {
			buf = append(buf, d.At(i, j0+k))
		}
	}
	return buf
}

func (rs *rankState) unpackRows(d *ops.Dat, j0, h int, buf []float64) {
	depth := d.Depth()
	n := 0
	for k := 0; k < h; k++ {
		for i := -depth; i < rs.nx+depth; i++ {
			d.Set(i, j0+k, buf[n])
			n++
		}
	}
}

// --- solver kernels (one source for every variant) --------------------------
//
// Each loop is one ParLoopRow around the internal/kern row body the other
// versions share; a[k].Row(dx, dy, n) is argument k's n-cell view of one
// stencil arm of the segment.

func (rs *rankState) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	rs.precond = precond
	recip := coef == config.RecipConductivity
	rs.ctx.ParLoopRow("tea_leaf_init", rs.block, rs.fullRange(),
		[]ops.Arg{
			ops.ArgDat(rs.density, sPoint, ops.Read),
			ops.ArgDat(rs.energy1, sPoint, ops.Read),
			ops.ArgDat(rs.u, sPoint, ops.Write),
			ops.ArgDat(rs.u0, sPoint, ops.Write),
			ops.ArgDat(rs.w, sPoint, ops.Write),
		},
		func(a []*ops.Acc, _ []float64, n int) {
			kern.InitRow(a[2].Row(0, 0, n), a[3].Row(0, 0, n), a[4].Row(0, 0, n),
				a[1].Row(0, 0, n), a[0].Row(0, 0, n), recip)
		})
	ring := ops.Range{XLo: -1, XHi: rs.nx + 1, YLo: -1, YHi: rs.ny + 1}
	rs.ctx.ParLoopRow("tea_leaf_init_kx_ky", rs.block, ring,
		[]ops.Arg{
			ops.ArgDat(rs.w, sWFace, ops.Read),
			ops.ArgDat(rs.kx, sPoint, ops.Write),
			ops.ArgDat(rs.ky, sPoint, ops.Write),
		},
		func(a []*ops.Acc, _ []float64, n int) {
			// FaceCoefRow covers cells [d-1, d+nx+1) of its rows: the segment,
			// for rows that start one cell left of it, d = 2 and nx = n-2.
			kern.FaceCoefRow(a[1].Row(-1, 0, n+1), a[2].Row(-1, 0, n+1),
				a[0].Row(-1, 0, n+1), a[0].Row(-1, -1, n+1), rx, ry, 2, n-2)
		})
	rs.CalcResidual()
	if precond == config.PrecondJacDiag {
		rs.ctx.ParLoopRow("tea_leaf_init_mi", rs.block, rs.interior(),
			[]ops.Arg{
				ops.ArgDat(rs.kx, sKxOp, ops.Read),
				ops.ArgDat(rs.ky, sKyOp, ops.Read),
				ops.ArgDat(rs.mi, sPoint, ops.Write),
			},
			func(a []*ops.Acc, _ []float64, n int) {
				kern.DiagInvRow(a[2].Row(0, 0, n), a[0].Row(0, 0, n+1), a[1].Row(0, 0, n), a[1].Row(0, 1, n), 0, n)
			})
	}
	if precond != config.PrecondNone {
		rs.ApplyPrecond()
	}
}

// operatorArgs are the common arguments of every A-application kernel.
func (rs *rankState) operatorArgs(src *ops.Dat) []ops.Arg {
	return []ops.Arg{
		ops.ArgDat(src, s5pt, ops.Read),
		ops.ArgDat(rs.kx, sKxOp, ops.Read),
		ops.ArgDat(rs.ky, sKyOp, ops.Read),
	}
}

// rowApplyA evaluates dst = A src over one n-cell row segment through the
// 4-wide unrolled kern body. a is the operatorArgs accessor layout
// (src/kx/ky); dst receives interior cells [0, n) of the segment only. The
// slices start one halo cell left so kern's shifted views line up (d = 1);
// every cell actually touched stays inside the declared stencils, which is
// what the tiling skew is derived from.
func rowApplyA(a []*ops.Acc, dst *ops.Acc, n int) {
	kern.OperatorRow(
		dst.Row(-1, 0, n+1),
		a[0].Row(-1, 0, n+2),
		a[0].Row(-1, 1, n+1),
		a[0].Row(-1, -1, n+1),
		a[1].Row(-1, 0, n+2),
		a[2].Row(-1, 0, n+1),
		a[2].Row(-1, 1, n+1),
		1, n)
}

func (rs *rankState) CalcResidual() {
	args := append(rs.operatorArgs(rs.u),
		ops.ArgDat(rs.u0, sPoint, ops.Read),
		ops.ArgDat(rs.r, sPoint, ops.Write))
	rs.ctx.ParLoopRow("tea_leaf_residual", rs.block, rs.interior(), args,
		func(a []*ops.Acc, _ []float64, n int) {
			rowApplyA(a, a[4], n)
			r := a[4].Row(0, 0, n)
			kern.Sub(r, a[3].Row(0, 0, n), r)
		})
}

// global allreduces a reducing loop's rank partial into the value every
// rank of the world returns. Reading the partial is what flushes the loop.
func (rs *rankState) global(red *ops.Reduction) float64 { return rs.rank.AllreduceSum(red.Value()) }

// dot is the global interior dot product of one dat with itself or of two
// dats. Every dot product goes through ParLoopRedDeferredRow: the reducing loop
// joins whatever chain is queued (cg_calc_p, reflective halo loops, ...) and
// the handle's Value() call is the true synchronisation point that flushes
// the whole chain — on a tiling context consecutive CG-iteration loops
// execute cache-resident as one skewed tile sweep.
func (rs *rankState) dot(name string, dats ...*ops.Dat) float64 {
	args := make([]ops.Arg, len(dats))
	for i, d := range dats {
		args[i] = ops.ArgDat(d, sPoint, ops.Read)
	}
	return rs.global(rs.ctx.ParLoopRedDeferredRow(name, rs.block, rs.interior(), 1, args,
		func(a []*ops.Acc, red []float64, n int) {
			red[0] = kern.DotAcc(red[0], a[0].Row(0, 0, n), a[len(a)-1].Row(0, 0, n))
		}))
}

func (rs *rankState) Norm2R() float64 { return rs.dot("norm2_r", rs.r) }

func (rs *rankState) DotRZ() float64 { return rs.dot("dot_rz", rs.r, rs.z) }

// precondSrc is the dat CG and Chebyshev take their direction from.
func (rs *rankState) precondSrc(precond bool) *ops.Dat {
	if precond {
		return rs.z
	}
	return rs.r
}

func (rs *rankState) ApplyPrecond() {
	if rs.precond == config.PrecondJacBlock {
		rs.blockSolve()
		return
	}
	rs.ctx.ParLoopRow("apply_precond", rs.block, rs.interior(),
		[]ops.Arg{
			ops.ArgDat(rs.mi, sPoint, ops.Read),
			ops.ArgDat(rs.r, sPoint, ops.Read),
			ops.ArgDat(rs.z, sPoint, ops.Write),
		},
		func(a []*ops.Acc, _ []float64, n int) {
			kern.Mul(a[2].Row(0, 0, n), a[0].Row(0, 0, n), a[1].Row(0, 0, n))
		})
}

// blockSolve is the line-Jacobi preconditioner as a ParLoop over a 1-cell-
// wide range: one iteration per mesh row, each accessing the whole row
// through x offsets. Its stencil radius equals the row length, which would
// poison the tiling skew, so it executes outside any deferred chain.
func (rs *rankState) blockSolve() {
	rs.ctx.Flush()
	nx := rs.nx
	rs.ctx.ParLoopRow("block_solve", rs.block,
		ops.Range{XLo: 0, XHi: 1, YLo: 0, YHi: rs.ny},
		[]ops.Arg{
			ops.ArgDat(rs.r, rs.sWholeRow, ops.Read),
			ops.ArgDat(rs.z, rs.sWholeRow, ops.Write),
			ops.ArgDat(rs.kx, rs.sWholeRowK, ops.Read),
			ops.ArgDat(rs.ky, rs.sWholeRowK, ops.Read),
			ops.ArgDat(rs.tcp, rs.sWholeRow, ops.Write),
			ops.ArgDat(rs.tdp, rs.sWholeRow, ops.Write),
		},
		func(a []*ops.Acc, _ []float64, _ int) {
			kern.ThomasRow(a[1].Row(0, 0, nx), a[0].Row(0, 0, nx),
				a[2].Row(0, 0, nx+1), a[3].Row(0, 0, nx), a[3].Row(0, 1, nx),
				a[4].Row(0, 0, nx), a[5].Row(0, 0, nx), 0, nx)
		})
	rs.ctx.Flush()
}

func (rs *rankState) CGInitP(precond bool) float64 {
	return rs.global(rs.ctx.ParLoopRedDeferredRow("cg_init_p", rs.block, rs.interior(), 1,
		[]ops.Arg{
			ops.ArgDat(rs.precondSrc(precond), sPoint, ops.Read),
			ops.ArgDat(rs.r, sPoint, ops.Read),
			ops.ArgDat(rs.p, sPoint, ops.Write),
		},
		func(a []*ops.Acc, red []float64, n int) {
			red[0] = kern.CopyDot(red[0], a[2].Row(0, 0, n), a[0].Row(0, 0, n), a[1].Row(0, 0, n))
		}))
}

func (rs *rankState) CGCalcW() float64 {
	args := append(rs.operatorArgs(rs.p), ops.ArgDat(rs.w, sPoint, ops.Write))
	return rs.global(rs.ctx.ParLoopRedDeferredRow("cg_calc_w", rs.block, rs.interior(), 1, args,
		func(a []*ops.Acc, red []float64, n int) {
			rowApplyA(a, a[3], n)
			red[0] = kern.DotAcc(red[0], a[0].Row(0, 0, n), a[3].Row(0, 0, n))
		}))
}

// urArgs are the arguments of the CG solution/residual update; extra follow.
func (rs *rankState) urArgs(extra ...ops.Arg) []ops.Arg {
	return append([]ops.Arg{
		ops.ArgDat(rs.u, sPoint, ops.RW),
		ops.ArgDat(rs.p, sPoint, ops.Read),
		ops.ArgDat(rs.r, sPoint, ops.RW),
		ops.ArgDat(rs.w, sPoint, ops.Read),
	}, extra...)
}

// rowUpdateUR applies u += alpha*p, r -= alpha*w over one row segment of the
// urArgs accessor layout and returns the updated r.
func rowUpdateUR(a []*ops.Acc, alpha float64, n int) []float64 {
	r := a[2].Row(0, 0, n)
	kern.UpdateUR(a[0].Row(0, 0, n), a[1].Row(0, 0, n), r, a[3].Row(0, 0, n), alpha)
	return r
}

// CGCalcUR is one multi-output ParLoopRed: it reads p and w (and mi),
// read-modify-writes u and r (and writes z) and reduces r·r (or r·z). The
// jac_block line solve is a whole-row stencil that cannot run point-wise, so
// that preconditioner runs as the update loop, then ApplyPrecond and DotRZ.
func (rs *rankState) CGCalcUR(alpha float64, precond bool) float64 {
	switch {
	case !precond:
		return rs.global(rs.ctx.ParLoopRedDeferredRow("cg_calc_ur", rs.block, rs.interior(), 1, rs.urArgs(),
			func(a []*ops.Acc, red []float64, n int) {
				r := rowUpdateUR(a, alpha, n)
				red[0] = kern.DotAcc(red[0], r, r)
			}))
	case rs.precond == config.PrecondJacBlock:
		rs.ctx.ParLoopRow("cg_calc_ur_update", rs.block, rs.interior(), rs.urArgs(),
			func(a []*ops.Acc, _ []float64, n int) { rowUpdateUR(a, alpha, n) })
		rs.ApplyPrecond()
		return rs.DotRZ()
	}
	return rs.global(rs.ctx.ParLoopRedDeferredRow("cg_calc_ur", rs.block, rs.interior(), 1,
		rs.urArgs(ops.ArgDat(rs.mi, sPoint, ops.Read), ops.ArgDat(rs.z, sPoint, ops.Write)),
		func(a []*ops.Acc, red []float64, n int) {
			r, z := rowUpdateUR(a, alpha, n), a[5].Row(0, 0, n)
			kern.Mul(z, a[4].Row(0, 0, n), r)
			red[0] = kern.DotAcc(red[0], r, z)
		}))
}

func (rs *rankState) CGCalcP(beta float64, precond bool) {
	rs.ctx.ParLoopRow("cg_calc_p", rs.block, rs.interior(),
		[]ops.Arg{ops.ArgDat(rs.precondSrc(precond), sPoint, ops.Read), ops.ArgDat(rs.p, sPoint, ops.RW)},
		func(a []*ops.Acc, _ []float64, n int) { kern.XPBY(a[1].Row(0, 0, n), a[0].Row(0, 0, n), beta) })
}

func (rs *rankState) JacobiCopyU() { rs.copyDat("jacobi_copy_u", rs.un, rs.u) }

func (rs *rankState) JacobiIterate() float64 {
	args := append(rs.operatorArgs(rs.un),
		ops.ArgDat(rs.u0, sPoint, ops.Read),
		ops.ArgDat(rs.u, sPoint, ops.Write))
	return rs.global(rs.ctx.ParLoopRedDeferredRow("jacobi_solve", rs.block, rs.interior(), 1, args,
		func(a []*ops.Acc, red []float64, n int) {
			red[0] = kern.JacobiRow(red[0],
				a[4].Row(-1, 0, n+1),
				a[0].Row(-1, 0, n+2),
				a[0].Row(-1, 1, n+1),
				a[0].Row(-1, -1, n+1),
				a[3].Row(-1, 0, n+1),
				a[1].Row(-1, 0, n+2),
				a[2].Row(-1, 0, n+1),
				a[2].Row(-1, 1, n+1),
				1, n)
		}))
}

// sdUArgs are the arguments of the Chebyshev direction kernels: the
// direction source, sd (written by the first, updated by the rest) and u.
func (rs *rankState) sdUArgs(precond bool, sdMode ops.AccessMode) []ops.Arg {
	return []ops.Arg{
		ops.ArgDat(rs.precondSrc(precond), sPoint, ops.Read),
		ops.ArgDat(rs.sd, sPoint, sdMode),
		ops.ArgDat(rs.u, sPoint, ops.RW),
	}
}

func (rs *rankState) ChebyInit(theta float64, precond bool) {
	rs.ctx.ParLoopRow("cheby_init", rs.block, rs.interior(), rs.sdUArgs(precond, ops.Write),
		func(a []*ops.Acc, _ []float64, n int) {
			kern.ChebyInitRow(a[1].Row(0, 0, n), a[2].Row(0, 0, n), a[0].Row(0, 0, n), theta)
		})
}

func (rs *rankState) ChebyIterate(alpha, beta float64, precond bool) {
	// r -= A sd, through w like every other version.
	args := append(rs.operatorArgs(rs.sd),
		ops.ArgDat(rs.w, sPoint, ops.Write),
		ops.ArgDat(rs.r, sPoint, ops.RW))
	rs.ctx.ParLoopRow("cheby_calc_r", rs.block, rs.interior(), args,
		func(a []*ops.Acc, _ []float64, n int) {
			rowApplyA(a, a[3], n)
			r := a[4].Row(0, 0, n)
			kern.Sub(r, r, a[3].Row(0, 0, n))
		})
	if precond {
		rs.ApplyPrecond()
	}
	rs.ctx.ParLoopRow("cheby_calc_sd_u", rs.block, rs.interior(), rs.sdUArgs(precond, ops.RW),
		func(a []*ops.Acc, _ []float64, n int) {
			kern.ChebyRow(a[1].Row(0, 0, n), a[2].Row(0, 0, n), a[0].Row(0, 0, n), alpha, beta)
		})
}

func (rs *rankState) PPCGInitInner(theta float64) {
	rs.ctx.ParLoopRow("ppcg_init_inner", rs.block, rs.interior(),
		[]ops.Arg{
			ops.ArgDat(rs.r, sPoint, ops.Read),
			ops.ArgDat(rs.rtemp, sPoint, ops.Write),
			ops.ArgDat(rs.z, sPoint, ops.Write),
			ops.ArgDat(rs.sd, sPoint, ops.Write),
		},
		func(a []*ops.Acc, _ []float64, n int) {
			kern.PPCGInitRow(a[1].Row(0, 0, n), a[2].Row(0, 0, n), a[3].Row(0, 0, n), a[0].Row(0, 0, n), theta)
		})
}

func (rs *rankState) PPCGInnerIterate(alpha, beta float64) {
	args := append(rs.operatorArgs(rs.sd), ops.ArgDat(rs.w, sPoint, ops.Write))
	rs.ctx.ParLoopRow("ppcg_calc_w", rs.block, rs.interior(), args,
		func(a []*ops.Acc, _ []float64, n int) { rowApplyA(a, a[3], n) })
	rs.ctx.ParLoopRow("ppcg_inner_update", rs.block, rs.interior(),
		[]ops.Arg{
			ops.ArgDat(rs.z, sPoint, ops.RW),
			ops.ArgDat(rs.sd, sPoint, ops.RW),
			ops.ArgDat(rs.rtemp, sPoint, ops.RW),
			ops.ArgDat(rs.w, sPoint, ops.Read),
		},
		func(a []*ops.Acc, _ []float64, n int) {
			kern.PPCGInnerRow(a[0].Row(0, 0, n), a[1].Row(0, 0, n), a[2].Row(0, 0, n), a[3].Row(0, 0, n), alpha, beta)
		})
}

func (rs *rankState) PPCGFinishInner() {
	rs.ctx.ParLoopRow("ppcg_finish_inner", rs.block, rs.interior(),
		[]ops.Arg{ops.ArgDat(rs.z, sPoint, ops.RW), ops.ArgDat(rs.sd, sPoint, ops.Read)},
		func(a []*ops.Acc, _ []float64, n int) { kern.Add(a[0].Row(0, 0, n), a[1].Row(0, 0, n)) })
}

func (rs *rankState) SolveFinalise() {
	rs.ctx.ParLoopRow("tea_leaf_finalise", rs.block, rs.interior(),
		[]ops.Arg{
			ops.ArgDat(rs.u, sPoint, ops.Read),
			ops.ArgDat(rs.density, sPoint, ops.Read),
			ops.ArgDat(rs.energy1, sPoint, ops.Write),
		},
		func(a []*ops.Acc, _ []float64, n int) {
			kern.Div(a[2].Row(0, 0, n), a[0].Row(0, 0, n), a[1].Row(0, 0, n))
		})
}

// Field-gather tags live above the halo-exchange tag space.
const (
	tagFetchMeta = 100000 + iota
	tagFetchData
)

// FetchField gathers the dat's interior onto rank 0 in global row-major
// order (downloading from the device first on the CUDA backend); other
// ranks return nil. RestoreField is FetchField's inverse. Every rank is
// handed the same global slab, so each writes its own chunk window into its
// dat and re-uploads — no gather/scatter messaging at all.
func (rs *rankState) RestoreField(id driver.FieldID, data []float64) {
	// A rollback restore abandons the failed step: any loops still queued
	// belong to the state being thrown away, so discard them (and invalidate
	// their pending reduction handles) instead of letting them execute
	// against the restored fields. The resilient driver replays the whole
	// step from SetField, which recomputes everything not checkpointed.
	rs.ctx.Discard()
	d := rs.byID[id]
	d.Download()
	for j := 0; j < rs.ny; j++ {
		row := data[(rs.chunk.Y0+j)*rs.gnx+rs.chunk.X0:]
		for i := 0; i < rs.nx; i++ {
			d.Set(i, j, row[i])
		}
	}
	d.Upload()
}

func (rs *rankState) FetchField(id driver.FieldID) []float64 {
	rs.ctx.Flush()
	d := rs.byID[id]
	d.Download()
	local := make([]float64, 0, rs.nx*rs.ny)
	for j := 0; j < rs.ny; j++ {
		for i := 0; i < rs.nx; i++ {
			local = append(local, d.At(i, j))
		}
	}
	if rs.rank.ID() != 0 {
		rs.rank.Send(0, tagFetchMeta, []float64{
			float64(rs.chunk.X0), float64(rs.chunk.Y0), float64(rs.nx), float64(rs.ny),
		})
		rs.rank.Send(0, tagFetchData, local)
		return nil
	}
	out := make([]float64, rs.gnx*rs.gny)
	place := func(x0, y0, nx, ny int, data []float64) {
		for j := 0; j < ny; j++ {
			copy(out[(y0+j)*rs.gnx+x0:(y0+j)*rs.gnx+x0+nx], data[j*nx:(j+1)*nx])
		}
	}
	place(rs.chunk.X0, rs.chunk.Y0, rs.nx, rs.ny, local)
	for r := 1; r < rs.rank.Size(); r++ {
		meta := rs.rank.Recv(r, tagFetchMeta)
		data := rs.rank.Recv(r, tagFetchData)
		place(int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3]), data)
	}
	return out
}
