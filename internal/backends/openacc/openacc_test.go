package openacc

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/backendtest"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
)

func TestConformanceHost(t *testing.T) {
	backendtest.Conformance(t, func() driver.Kernels { return New(TargetHost, 4) })
}

func TestConformanceDevice(t *testing.T) {
	backendtest.Conformance(t, func() driver.Kernels { return New(TargetDevice, 4) })
}

func TestFusionEquivalence(t *testing.T) {
	backendtest.FusionEquivalence(t, func() driver.Kernels { return New(TargetHost, 4) })
}

// TestTargetsAgree: the single-source property — the same kernels must give
// identical physics on both targets.
func TestTargetsAgree(t *testing.T) {
	cfg := config.BenchmarkN(20)
	cfg.EndStep = 2
	host := backendtest.Run(t, func() driver.Kernels { return New(TargetHost, 3) }, cfg)
	dev := backendtest.Run(t, func() driver.Kernels { return New(TargetDevice, 5) }, cfg)
	if d := driver.CompareTotals(host.Final, dev.Final); d > 1e-9 {
		t.Errorf("targets disagree by %g", d)
	}
}

// TestDeviceAccounting pins the device target's offload accounting on tea_bm
// 64², one step, at width 2: iterations, regions launched and bytes moved for
// each CG preconditioner. Every For and Reduce launch of the chunk recipe is
// one region, so with n iterations:
//
//	Regions = 28 + pre + per·n
//
// 28 is generate_chunk (1), the two two-field exchanges (2·2·4: one region
// per side per field), set_field, the three SolveInit sweeps
// (init, face coefficients, residual), cg_init_p, finalise, reset_field and
// field_summary's four totals (4). pre is SolveInit's preconditioner set-up:
// 0 unpreconditioned, 2 for jac_diag (init_mi, apply_precond), 1 for
// jac_block (block_solve). per is the iteration's kernels plus the four
// regions of p's exchange (the prologue exchange stands in for the one the
// converged iteration skips): 3+4 unpreconditioned and jac_diag (cg_calc_w,
// cg_calc_ur, cg_calc_p), 5+4 for jac_block, whose cg_calc_ur is the update
// sweep, block_solve and dot_rz. Each reduction brings one scalar back:
// BytesOut = 8·(cg_init_p + field_summary's 4 + 2n). BytesIn is the 17
// fields' copyin, 17·68²·8. The host target must charge no traffic.
func TestDeviceAccounting(t *testing.T) {
	cfg := config.BenchmarkN(64)
	cfg.EndStep = 1
	want := map[config.Preconditioner]struct {
		iters int
		st    Stats
	}{
		config.PrecondNone:     {21, Stats{Regions: 28 + 7*21, BytesIn: 628864, BytesOut: 8 * (5 + 2*21)}},
		config.PrecondJacDiag:  {17, Stats{Regions: 30 + 7*17, BytesIn: 628864, BytesOut: 8 * (5 + 2*17)}},
		config.PrecondJacBlock: {15, Stats{Regions: 29 + 9*15, BytesIn: 628864, BytesOut: 8 * (5 + 2*15)}},
	}
	for pc, w := range want {
		cfg.Preconditioner = pc
		k := New(TargetDevice, 2)
		res := backendtest.Run(t, func() driver.Kernels { return k }, cfg)
		if st := k.Stats(); st != w.st || res.TotalIterations != w.iters {
			t.Errorf("%v: %d iterations, stats %+v; want %d, %+v", pc, res.TotalIterations, st, w.iters, w.st)
		}
	}
	cfg.Preconditioner = config.PrecondNone
	kh := New(TargetHost, 2)
	backendtest.Run(t, func() driver.Kernels { return kh }, cfg)
	if kh.Stats().BytesIn != 0 {
		t.Error("host target charged copyin traffic")
	}
}
