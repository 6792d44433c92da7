package driver

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/profiler"
)

// Instrumented wraps any port with per-kernel wall-clock timing and
// analytic traffic attribution — the project's stand-in for VTune/nvprof
// counters. The byte and FLOP counts are the algorithmically necessary
// traffic of each kernel as the executed path performs it (reads + writes
// of the fields each full-field sweep touches, at 8 bytes per double), so
// Profile.AchievedGBs is the "useful bandwidth" an external profiler would
// report for a streaming-bound code, and the sweep counters count the
// full-field passes each solver iteration makes.
type Instrumented struct {
	Kernels
	prof   *profiler.Profile
	nx, ny int64
}

// Instrument wraps k so every kernel call is recorded in prof.
func Instrument(k Kernels, prof *profiler.Profile) *Instrumented {
	return &Instrumented{Kernels: k, prof: prof}
}

// Profile returns the profile being filled.
func (in *Instrumented) Profile() *profiler.Profile { return in.prof }

// cells returns interior, padded-extent cell counts.
func (in *Instrumented) cells() (n, full int64) {
	n = in.nx * in.ny
	full = (in.nx + 4) * (in.ny + 4)
	return
}

// Generate implements Kernels.
func (in *Instrumented) Generate(m *grid.Mesh, states []config.State) error {
	in.nx, in.ny = int64(m.Nx), int64(m.Ny)
	var err error
	_, full := in.cells()
	in.prof.TimeSweeps("generate_chunk", 2*8*full, 0, 1, func() {
		err = in.Kernels.Generate(m, states)
	})
	return err
}

// SetField implements Kernels.
func (in *Instrumented) SetField() {
	_, full := in.cells()
	in.prof.TimeSweeps("set_field", 2*8*full, 0, 1, in.Kernels.SetField)
}

// ResetField implements Kernels.
func (in *Instrumented) ResetField() {
	_, full := in.cells()
	in.prof.TimeSweeps("reset_field", 2*8*full, 0, 1, in.Kernels.ResetField)
}

// FieldSummary implements Kernels.
func (in *Instrumented) FieldSummary() Totals {
	n, _ := in.cells()
	var t Totals
	in.prof.TimeSweeps("field_summary", 3*8*n, 6*n, 1, func() { t = in.Kernels.FieldSummary() })
	return t
}

// HaloExchange implements Kernels.
func (in *Instrumented) HaloExchange(fields []FieldID, depth int) {
	perim := 2 * int64(depth) * (in.nx + in.ny + 2*int64(depth))
	bytes := int64(len(fields)) * 2 * 8 * perim
	in.prof.Time("update_halo", bytes, 0, func() { in.Kernels.HaloExchange(fields, depth) })
}

// SolveInit implements Kernels.
func (in *Instrumented) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	n, full := in.cells()
	bytes := 5*8*full + 3*8*n + 5*8*n
	flops := 22 * n
	if precond != config.PrecondNone {
		bytes += 6 * 8 * n
		flops += 6 * n
	}
	in.prof.TimeSweeps("tea_leaf_init", bytes, flops, 3, func() {
		in.Kernels.SolveInit(coef, rx, ry, precond)
	})
}

// SolveFinalise implements Kernels.
func (in *Instrumented) SolveFinalise() {
	n, _ := in.cells()
	in.prof.TimeSweeps("tea_leaf_finalise", 3*8*n, n, 1, in.Kernels.SolveFinalise)
}

// CalcResidual implements Kernels.
func (in *Instrumented) CalcResidual() {
	n, _ := in.cells()
	in.prof.TimeSweeps("calc_residual", 5*8*n, 13*n, 1, in.Kernels.CalcResidual)
}

// Norm2R implements Kernels.
func (in *Instrumented) Norm2R() float64 {
	n, _ := in.cells()
	var v float64
	in.prof.TimeSweeps("norm2_r", 8*n, 2*n, 1, func() { v = in.Kernels.Norm2R() })
	return v
}

// DotRZ implements Kernels.
func (in *Instrumented) DotRZ() float64 {
	n, _ := in.cells()
	var v float64
	in.prof.TimeSweeps("dot_rz", 2*8*n, 2*n, 1, func() { v = in.Kernels.DotRZ() })
	return v
}

// ApplyPrecond implements Kernels.
func (in *Instrumented) ApplyPrecond() {
	n, _ := in.cells()
	in.prof.TimeSweeps("apply_precond", 3*8*n, n, 1, in.Kernels.ApplyPrecond)
}

// CGInitP implements Kernels.
func (in *Instrumented) CGInitP(precond bool) float64 {
	n, _ := in.cells()
	var v float64
	in.prof.TimeSweeps("cg_init_p", 3*8*n, 2*n, 1, func() { v = in.Kernels.CGInitP(precond) })
	return v
}

// CGCalcW implements Kernels: one sweep reads p, kx, ky and writes w, with
// the p·w dot carried in registers.
func (in *Instrumented) CGCalcW() float64 {
	n, _ := in.cells()
	var v float64
	in.prof.TimeSweeps("cg_calc_w", 4*8*n, 15*n, 1, func() { v = in.Kernels.CGCalcW() })
	return v
}

// CGCalcUR implements Kernels: one sweep reads u, p, r, w (and mi when
// preconditioned) and writes u, r (and z), with the reduction in registers.
func (in *Instrumented) CGCalcUR(alpha float64, precond bool) float64 {
	n, _ := in.cells()
	bytes, flops := 6*8*n, 6*n
	if precond {
		bytes += 2 * 8 * n
		flops += 3 * n
	}
	var v float64
	in.prof.TimeSweeps("cg_calc_ur", bytes, flops, 1, func() { v = in.Kernels.CGCalcUR(alpha, precond) })
	return v
}

// HasFieldRestorer implements CapabilityReporter.
func (in *Instrumented) HasFieldRestorer() bool { return AsFieldRestorer(in.Kernels) != nil }

// HasTilingReporter reports whether the wrapped port exposes tiling
// statistics; AsTilingReporter consults it to see through the wrapper.
func (in *Instrumented) HasTilingReporter() bool { return AsTilingReporter(in.Kernels) != nil }

// TilingSnapshot forwards to the wrapped port's tiling statistics.
func (in *Instrumented) TilingSnapshot() TilingSnapshot {
	return AsTilingReporter(in.Kernels).TilingSnapshot()
}

// RestoreField implements FieldRestorer by forwarding to the wrapped port;
// restore is a recovery path, so it is timed but attributed no sweep.
func (in *Instrumented) RestoreField(id FieldID, data []float64) {
	f := AsFieldRestorer(in.Kernels)
	in.prof.Time("restore_field", 8*int64(len(data)), 0, func() { f.RestoreField(id, data) })
}

// CGCalcP implements Kernels.
func (in *Instrumented) CGCalcP(beta float64, precond bool) {
	n, _ := in.cells()
	in.prof.TimeSweeps("cg_calc_p", 3*8*n, 2*n, 1, func() { in.Kernels.CGCalcP(beta, precond) })
}

// JacobiCopyU implements Kernels.
func (in *Instrumented) JacobiCopyU() {
	_, full := in.cells()
	in.prof.TimeSweeps("jacobi_copy_u", 2*8*full, 0, 1, in.Kernels.JacobiCopyU)
}

// JacobiIterate implements Kernels.
func (in *Instrumented) JacobiIterate() float64 {
	n, _ := in.cells()
	var v float64
	in.prof.TimeSweeps("jacobi_solve", 5*8*n, 15*n, 1, func() { v = in.Kernels.JacobiIterate() })
	return v
}

// ChebyInit implements Kernels.
func (in *Instrumented) ChebyInit(theta float64, precond bool) {
	n, _ := in.cells()
	in.prof.TimeSweeps("cheby_init", 4*8*n, 3*n, 1, func() { in.Kernels.ChebyInit(theta, precond) })
}

// ChebyIterate implements Kernels.
func (in *Instrumented) ChebyIterate(alpha, beta float64, precond bool) {
	n, _ := in.cells()
	in.prof.TimeSweeps("cheby_iterate", 10*8*n, 20*n, 2, func() { in.Kernels.ChebyIterate(alpha, beta, precond) })
}

// PPCGInitInner implements Kernels.
func (in *Instrumented) PPCGInitInner(theta float64) {
	n, _ := in.cells()
	in.prof.TimeSweeps("ppcg_init_inner", 4*8*n, n, 1, func() { in.Kernels.PPCGInitInner(theta) })
}

// PPCGInnerIterate implements Kernels.
func (in *Instrumented) PPCGInnerIterate(alpha, beta float64) {
	n, _ := in.cells()
	in.prof.TimeSweeps("ppcg_inner_iterate", 11*8*n, 19*n, 2, func() { in.Kernels.PPCGInnerIterate(alpha, beta) })
}

// PPCGFinishInner implements Kernels.
func (in *Instrumented) PPCGFinishInner() {
	n, _ := in.cells()
	in.prof.TimeSweeps("ppcg_finish_inner", 3*8*n, n, 1, in.Kernels.PPCGFinishInner)
}
