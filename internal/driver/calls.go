package driver

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// KernelID names one Kernels method other than Name and Close: the kernel
// list as data, for the layers that treat every kernel alike (profiling,
// fault injection, running a call on every rank of a world).
type KernelID uint8

// The kernels, in Kernels method order.
const (
	KGenerate KernelID = iota
	KSetField
	KFieldSummary
	KHaloExchange
	KSolveInit
	KSolveFinalise
	KResetField
	KCalcResidual
	KNorm2R
	KDotRZ
	KApplyPrecond
	KCGInitP
	KCGCalcW
	KCGCalcUR
	KCGCalcP
	KJacobiCopyU
	KJacobiIterate
	KChebyInit
	KChebyIterate
	KPPCGInitInner
	KPPCGInnerIterate
	KPPCGFinishInner
	KFetchField
	KRestoreField
	numKernels
)

// KernelDesc describes one kernel. Traffic is the algorithmically necessary
// memory traffic and FLOPs of one call on an nx-by-ny chunk as the executed
// path performs it (reads + writes of the fields each full-field sweep
// touches, at 8 bytes per double), so a profile's achieved GB/s is the
// "useful bandwidth" an external profiler would report for a
// streaming-bound code; Sweeps counts the full-field passes one call makes.
type KernelDesc struct {
	Name    string // profile name; "" for FetchField, which is not timed
	Sweeps  int64
	Traffic func(nx, ny int64, c *Call) (bytes, flops int64)
	// Poisonable marks a reduction the solver's convergence and breakdown
	// guards read: the results a chaos nan or flipred fault corrupts.
	Poisonable bool
}

// Desc returns id's descriptor.
func (id KernelID) Desc() KernelDesc { return kernelTable[id] }

type traffic = func(nx, ny int64, c *Call) (bytes, flops int64)

// cells charges bytes and flops per interior cell.
func cells(bytes, flops int64) traffic {
	return func(nx, ny int64, _ *Call) (int64, int64) { return bytes * nx * ny, flops * nx * ny }
}

// padded charges bytes per cell of the chunk with its two-deep halo.
func padded(bytes int64) traffic {
	return func(nx, ny int64, _ *Call) (int64, int64) { return bytes * (nx + 4) * (ny + 4), 0 }
}

var kernelTable = [numKernels]KernelDesc{
	KGenerate:     {"generate_chunk", 1, padded(2 * 8), false},
	KSetField:     {"set_field", 1, padded(2 * 8), false},
	KFieldSummary: {"field_summary", 1, cells(3*8, 6), false},
	KHaloExchange: {"update_halo", 0, func(nx, ny int64, c *Call) (int64, int64) {
		depth := int64(c.Depth)
		perim := 2 * depth * (nx + ny + 2*depth)
		return int64(len(c.Fields)) * 2 * 8 * perim, 0
	}, false},
	KSolveInit: {"tea_leaf_init", 3, func(nx, ny int64, c *Call) (int64, int64) {
		n, full := nx*ny, (nx+4)*(ny+4)
		bytes, flops := 5*8*full+3*8*n+5*8*n, 22*n
		if c.Kind != config.PrecondNone {
			bytes += 6 * 8 * n
			flops += 6 * n
		}
		return bytes, flops
	}, false},
	KSolveFinalise: {"tea_leaf_finalise", 1, cells(3*8, 1), false},
	KResetField:    {"reset_field", 1, padded(2 * 8), false},
	KCalcResidual:  {"calc_residual", 1, cells(5*8, 13), false},
	KNorm2R:        {"norm2_r", 1, cells(8, 2), true},
	KDotRZ:         {"dot_rz", 1, cells(2*8, 2), true},
	KApplyPrecond:  {"apply_precond", 1, cells(3*8, 1), false},
	KCGInitP:       {"cg_init_p", 1, cells(3*8, 2), true},
	// One sweep reads p, kx, ky and writes w, with p·w in registers.
	KCGCalcW: {"cg_calc_w", 1, cells(4*8, 15), true},
	// One sweep reads u, p, r, w (and mi when preconditioned) and writes
	// u, r (and z), with the reduction in registers.
	KCGCalcUR: {"cg_calc_ur", 1, func(nx, ny int64, c *Call) (int64, int64) {
		n := nx * ny
		bytes, flops := 6*8*n, 6*n
		if c.Precond {
			bytes += 2 * 8 * n
			flops += 3 * n
		}
		return bytes, flops
	}, true},
	KCGCalcP:          {"cg_calc_p", 1, cells(3*8, 2), false},
	KJacobiCopyU:      {"jacobi_copy_u", 1, padded(2 * 8), false},
	KJacobiIterate:    {"jacobi_solve", 1, cells(5*8, 15), true},
	KChebyInit:        {"cheby_init", 1, cells(4*8, 3), false},
	KChebyIterate:     {"cheby_iterate", 2, cells(10*8, 20), false},
	KPPCGInitInner:    {"ppcg_init_inner", 1, cells(4*8, 1), false},
	KPPCGInnerIterate: {"ppcg_inner_iterate", 2, cells(11*8, 19), false},
	KPPCGFinishInner:  {"ppcg_finish_inner", 1, cells(3*8, 1), false},
	KFetchField:       {"", 0, nil, false},
	// Restore is a recovery path: timed, but attributed no sweep.
	KRestoreField: {"restore_field", 0, func(_, _ int64, c *Call) (int64, int64) {
		return 8 * int64(len(c.Data)), 0
	}, false},
}

// Call is one kernel call as data: its id, its arguments and, once applied,
// its result. Each field is named for the Kernels arguments it carries.
type Call struct {
	ID KernelID

	Mesh    *grid.Mesh            // Generate
	States  []config.State        // Generate
	Fields  []FieldID             // HaloExchange
	Depth   int                   // HaloExchange
	Coef    config.Coefficient    // SolveInit
	Kind    config.Preconditioner // SolveInit
	Field   FieldID               // FetchField, RestoreField
	Data    []float64             // RestoreField's argument, FetchField's result
	A, B    float64               // scalars in order: rx, ry; alpha; beta; theta; alpha, beta
	Precond bool                  // the CG and Chebyshev kernels' precond flag

	Value  float64 // a reduction's result
	Totals Totals  // FieldSummary's result
	Err    error   // Generate's result
}

// Apply runs c on k, leaving any result in c. It is the one switch over
// the kernels.
func (c *Call) Apply(k Kernels) {
	switch c.ID {
	case KGenerate:
		c.Err = k.Generate(c.Mesh, c.States)
	case KSetField:
		k.SetField()
	case KFieldSummary:
		c.Totals = k.FieldSummary()
	case KHaloExchange:
		k.HaloExchange(c.Fields, c.Depth)
	case KSolveInit:
		k.SolveInit(c.Coef, c.A, c.B, c.Kind)
	case KSolveFinalise:
		k.SolveFinalise()
	case KResetField:
		k.ResetField()
	case KCalcResidual:
		k.CalcResidual()
	case KNorm2R:
		c.Value = k.Norm2R()
	case KDotRZ:
		c.Value = k.DotRZ()
	case KApplyPrecond:
		k.ApplyPrecond()
	case KCGInitP:
		c.Value = k.CGInitP(c.Precond)
	case KCGCalcW:
		c.Value = k.CGCalcW()
	case KCGCalcUR:
		c.Value = k.CGCalcUR(c.A, c.Precond)
	case KCGCalcP:
		k.CGCalcP(c.A, c.Precond)
	case KJacobiCopyU:
		k.JacobiCopyU()
	case KJacobiIterate:
		c.Value = k.JacobiIterate()
	case KChebyInit:
		k.ChebyInit(c.A, c.Precond)
	case KChebyIterate:
		k.ChebyIterate(c.A, c.B, c.Precond)
	case KPPCGInitInner:
		k.PPCGInitInner(c.A)
	case KPPCGInnerIterate:
		k.PPCGInnerIterate(c.A, c.B)
	case KPPCGFinishInner:
		k.PPCGFinishInner()
	case KFetchField:
		c.Data = k.FetchField(c.Field)
	case KRestoreField:
		k.RestoreField(c.Field, c.Data)
	}
}

// Forwarder is the one hand-written set of forwarding methods: every Kernels
// method except Name and Close writes its call into a slot the Forwarder
// owns, so a call allocates nothing, and hands the slot to the intercept
// function, which runs it (c.Apply on some Kernels) and must not keep it. A
// layer that wraps kernels embeds a Forwarder and supplies Name and Close.
type Forwarder struct {
	intercept func(*Call)
	slot      Call
}

// Forward returns a Forwarder handing every call to intercept.
func Forward(intercept func(*Call)) Forwarder { return Forwarder{intercept: intercept} }

func (f *Forwarder) do(c Call) *Call {
	f.slot = c
	f.intercept(&f.slot)
	return &f.slot
}

// Generate implements Kernels.
func (f *Forwarder) Generate(m *grid.Mesh, states []config.State) error {
	return f.do(Call{ID: KGenerate, Mesh: m, States: states}).Err
}

// SetField implements Kernels.
func (f *Forwarder) SetField() { f.do(Call{ID: KSetField}) }

// FieldSummary implements Kernels.
func (f *Forwarder) FieldSummary() Totals { return f.do(Call{ID: KFieldSummary}).Totals }

// HaloExchange implements Kernels.
func (f *Forwarder) HaloExchange(fields []FieldID, depth int) {
	f.do(Call{ID: KHaloExchange, Fields: fields, Depth: depth})
}

// SolveInit implements Kernels.
func (f *Forwarder) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	f.do(Call{ID: KSolveInit, Coef: coef, A: rx, B: ry, Kind: precond})
}

// SolveFinalise implements Kernels.
func (f *Forwarder) SolveFinalise() { f.do(Call{ID: KSolveFinalise}) }

// ResetField implements Kernels.
func (f *Forwarder) ResetField() { f.do(Call{ID: KResetField}) }

// CalcResidual implements Kernels.
func (f *Forwarder) CalcResidual() { f.do(Call{ID: KCalcResidual}) }

// Norm2R implements Kernels.
func (f *Forwarder) Norm2R() float64 { return f.do(Call{ID: KNorm2R}).Value }

// DotRZ implements Kernels.
func (f *Forwarder) DotRZ() float64 { return f.do(Call{ID: KDotRZ}).Value }

// ApplyPrecond implements Kernels.
func (f *Forwarder) ApplyPrecond() { f.do(Call{ID: KApplyPrecond}) }

// CGInitP implements Kernels.
func (f *Forwarder) CGInitP(precond bool) float64 {
	return f.do(Call{ID: KCGInitP, Precond: precond}).Value
}

// CGCalcW implements Kernels.
func (f *Forwarder) CGCalcW() float64 { return f.do(Call{ID: KCGCalcW}).Value }

// CGCalcUR implements Kernels.
func (f *Forwarder) CGCalcUR(alpha float64, precond bool) float64 {
	return f.do(Call{ID: KCGCalcUR, A: alpha, Precond: precond}).Value
}

// CGCalcP implements Kernels.
func (f *Forwarder) CGCalcP(beta float64, precond bool) {
	f.do(Call{ID: KCGCalcP, A: beta, Precond: precond})
}

// JacobiCopyU implements Kernels.
func (f *Forwarder) JacobiCopyU() { f.do(Call{ID: KJacobiCopyU}) }

// JacobiIterate implements Kernels.
func (f *Forwarder) JacobiIterate() float64 { return f.do(Call{ID: KJacobiIterate}).Value }

// ChebyInit implements Kernels.
func (f *Forwarder) ChebyInit(theta float64, precond bool) {
	f.do(Call{ID: KChebyInit, A: theta, Precond: precond})
}

// ChebyIterate implements Kernels.
func (f *Forwarder) ChebyIterate(alpha, beta float64, precond bool) {
	f.do(Call{ID: KChebyIterate, A: alpha, B: beta, Precond: precond})
}

// PPCGInitInner implements Kernels.
func (f *Forwarder) PPCGInitInner(theta float64) { f.do(Call{ID: KPPCGInitInner, A: theta}) }

// PPCGInnerIterate implements Kernels.
func (f *Forwarder) PPCGInnerIterate(alpha, beta float64) {
	f.do(Call{ID: KPPCGInnerIterate, A: alpha, B: beta})
}

// PPCGFinishInner implements Kernels.
func (f *Forwarder) PPCGFinishInner() { f.do(Call{ID: KPPCGFinishInner}) }

// FetchField implements Kernels.
func (f *Forwarder) FetchField(id FieldID) []float64 {
	return f.do(Call{ID: KFetchField, Field: id}).Data
}

// RestoreField implements Kernels.
func (f *Forwarder) RestoreField(id FieldID, data []float64) {
	f.do(Call{ID: KRestoreField, Field: id, Data: data})
}
