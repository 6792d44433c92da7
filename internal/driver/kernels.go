// Package driver defines the contract between the TeaLeaf solver control
// flow and its many ports, and runs complete simulations against any port.
//
// The original mini-app is structured as a small Fortran driver calling a
// set of ~20 computational kernels; each manual or framework port
// re-implements the kernels in its own programming model while the control
// flow stays identical. This package reproduces that structure: Kernels is
// the kernel set, internal/solver is the control flow, and every package
// under internal/backends is one port.
//
// Concurrency and ownership: a Kernels instance owns its fields and its
// parallel runtime (thread team, rank world or simulated device) and is
// driven by one solve at a time from one goroutine — Run/RunCtx and the
// resilient variants are synchronous and must not be invoked concurrently
// on the same instance. Concurrency across solves comes from independent
// instances (internal/serve builds one per job). Results and checkpoint
// snapshots are copies; the driver retains no live references into the
// port after a run returns.
package driver

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// FieldID names the exchangeable fields of a chunk. Halo exchanges name the
// fields to update, exactly like the mini-app's fields(FIELD_P)=1 flags.
type FieldID int

const (
	// FieldDensity is the material density (input, constant per step).
	FieldDensity FieldID = iota
	// FieldEnergy0 is the start-of-step specific energy.
	FieldEnergy0
	// FieldEnergy1 is the end-of-step specific energy being solved for.
	FieldEnergy1
	// FieldU is the temperature-like solve variable u = density * energy.
	FieldU
	// FieldU0 is the right-hand side (u at solve start).
	FieldU0
	// FieldP is the CG search direction.
	FieldP
	// FieldR is the residual.
	FieldR
	// FieldW is the operator application scratch (w = A p).
	FieldW
	// FieldZ is the preconditioned residual.
	FieldZ
	// FieldSD is the Chebyshev/PPCG smoothing direction.
	FieldSD
	// FieldKx is the x-face conduction coefficient.
	FieldKx
	// FieldKy is the y-face conduction coefficient.
	FieldKy

	// NumFields is the number of exchangeable fields.
	NumFields
)

var fieldNames = [NumFields]string{
	"density", "energy0", "energy1", "u", "u0", "p", "r", "w", "z", "sd", "kx", "ky",
}

func (f FieldID) String() string {
	if f >= 0 && f < NumFields {
		return fieldNames[f]
	}
	return "field?"
}

// Totals are the field-summary reductions TeaLeaf prints each summary step;
// they are the quantities QA verification compares.
type Totals struct {
	Volume         float64 // sum of cell volumes
	Mass           float64 // sum of density * volume
	InternalEnergy float64 // sum of density * energy0 * volume
	Temperature    float64 // sum of u * volume
}

// Kernels is one TeaLeaf port: the full set of computational kernels the
// solver control flow drives. Methods operate on the port's own field
// storage in whatever layout/memory space the port uses.
//
// Reduction-returning kernels must be deterministic for a fixed
// configuration (fixed thread/rank/block shape): the cross-backend
// verification tests compare ports at 1e-8 relative tolerance, which
// requires stable (not run-to-run-varying) floating-point summation order.
type Kernels interface {
	// Name identifies the port, e.g. "manual-omp".
	Name() string

	// Generate initialises density and energy0 from the material states on
	// the given mesh (the generate_chunk kernel). It must be called once
	// before any other kernel.
	Generate(m *grid.Mesh, states []config.State) error

	// SetField copies energy0 into energy1 (the set_field kernel, start of
	// step).
	SetField()

	// FieldSummary reduces the interior cells into the QA totals
	// (field_summary kernel).
	FieldSummary() Totals

	// HaloExchange updates depth halo layers of the named fields:
	// neighbouring chunks exchange interior strips and physical boundaries
	// reflect (the update_halo kernel). Ports without distributed chunks
	// only apply the reflective boundary.
	HaloExchange(fields []FieldID, depth int)

	// SolveInit prepares a solve (tea_leaf_common_init): u = energy1 *
	// density, u0 = u, the face coefficients Kx/Ky from the chosen
	// conduction coefficient scaled by rx/ry, the initial residual
	// r = u0 - A u, and, when a preconditioner is selected, its
	// coefficients and z = M^-1 r. The port remembers the preconditioner
	// kind: later ApplyPrecond calls (explicit or inside CGCalcUR) apply
	// it. Density and energy1 halos must be current to depth 2.
	SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner)

	// SolveFinalise writes the solution back: energy1 = u / density.
	SolveFinalise()

	// ResetField copies energy1 into energy0 (end of step).
	ResetField()

	// CalcResidual recomputes r = u0 - A u (requires u halo depth 1).
	CalcResidual()

	// Norm2R returns sum(r*r) over the interior.
	Norm2R() float64

	// DotRZ returns sum(r*z) over the interior.
	DotRZ() float64

	// ApplyPrecond sets z = M^-1 r with the preconditioner selected at
	// SolveInit: the diagonal inverse for jac_diag, or per-row tridiagonal
	// Thomas solves for jac_block (the line-Jacobi block preconditioner),
	// which replay the factors of the row blocks SolveInit made from that
	// solve's Kx/Ky.
	ApplyPrecond()

	// CGInitP starts CG: p = z if precond else p = r, returning
	// rro = sum(r*p).
	CGInitP(precond bool) float64

	// CGCalcW applies the operator to the search direction, w = A p
	// (requires p halo depth 1), returning pw = sum(p*w).
	CGCalcW() float64

	// CGCalcUR advances solution and residual, u += alpha*p, r -= alpha*w;
	// when precond is set it also refreshes z = M^-1 r. Returns
	// rrn = sum(r*z) when precond else sum(r*r).
	CGCalcUR(alpha float64, precond bool) float64

	// CGCalcP updates the search direction, p = (z if precond else r) +
	// beta*p.
	CGCalcP(beta float64, precond bool)

	// JacobiCopyU snapshots u into the Jacobi scratch field (un = u).
	JacobiCopyU()

	// JacobiIterate performs one Jacobi sweep from the snapshot (requires
	// un halo depth 1, which ports satisfy by exchanging FieldU before
	// JacobiCopyU or by exchanging their scratch with FieldU's tag) and
	// returns sum(|u_new - u_old|).
	JacobiIterate() float64

	// ChebyInit starts the Chebyshev iteration: sd = (z if precond else
	// r)/theta and u += sd.
	ChebyInit(theta float64, precond bool)

	// ChebyIterate performs one Chebyshev step: r -= A sd (requires sd halo
	// depth 1); when precond is set z = M^-1 r; then sd = alpha*sd +
	// beta*(z|r) and u += sd.
	ChebyIterate(alpha, beta float64, precond bool)

	// PPCGInitInner begins one polynomial-preconditioner application
	// z = P(A) r: rtemp = r, z = 0, sd = rtemp/theta.
	PPCGInitInner(theta float64)

	// PPCGInnerIterate performs one inner smoothing step: z += sd,
	// rtemp -= A sd (requires sd halo depth 1), sd = alpha*sd + beta*rtemp.
	PPCGInnerIterate(alpha, beta float64)

	// PPCGFinishInner completes the application: z += sd.
	PPCGFinishInner()

	// FetchField returns a copy of the named field's interior in row-major
	// order (nx*ny elements, row 0 first) — the visualisation/inspection
	// path (the mini-app's visit output). Distributed ports gather their
	// chunks; device ports copy back to the host.
	FetchField(id FieldID) []float64

	// RestoreField overwrites the interior of the named field with data
	// (nx*ny elements, row 0 first — the exact layout FetchField returns):
	// the write path checkpoint rollback and restart-from-file need.
	// Distributed ports scatter the slab back to their chunks; device ports
	// upload to device memory. The caller refreshes the field's halo
	// afterwards (RestoreField itself only writes the interior).
	RestoreField(id FieldID, data []float64)

	// Close releases port resources (thread teams, devices, worlds).
	Close()
}
