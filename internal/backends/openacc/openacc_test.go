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
// each CG preconditioner. A CG iteration's kernels are three regions with or
// without a preconditioner (w = A p with p·w; the u/r update with z = M⁻¹ r
// and the r·z or r·r reduction; p), plus two for p's halo exchange, so the
// preconditioned decks differ from the plain one only through their
// iteration counts and SolveInit's extra regions. The host target must
// charge no traffic.
func TestDeviceAccounting(t *testing.T) {
	cfg := config.BenchmarkN(64)
	cfg.EndStep = 1
	want := map[config.Preconditioner]struct {
		iters int
		st    Stats
	}{
		config.PrecondNone:     {21, Stats{Regions: 122, BytesIn: 628864, BytesOut: 376}},
		config.PrecondJacDiag:  {17, Stats{Regions: 104, BytesIn: 628864, BytesOut: 312}},
		config.PrecondJacBlock: {15, Stats{Regions: 93, BytesIn: 628864, BytesOut: 280}},
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
