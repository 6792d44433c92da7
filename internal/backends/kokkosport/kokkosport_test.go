package kokkosport

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/backendtest"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/kokkos"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

func TestConformanceSerial(t *testing.T) {
	backendtest.Conformance(t, func() driver.Kernels { return New(kokkos.Serial{}) })
}

func TestConformanceOpenMP(t *testing.T) {
	backendtest.Conformance(t, func() driver.Kernels { return New(kokkos.NewOpenMP(4)) })
}

func TestConformanceCuda(t *testing.T) {
	backendtest.Conformance(t, func() driver.Kernels { return New(kokkos.NewCuda(2, simgpu.Dim2{X: 16, Y: 4})) })
}

func TestFusionEquivalenceOpenMP(t *testing.T) {
	backendtest.FusionEquivalence(t, func() driver.Kernels { return New(kokkos.NewOpenMP(4)) })
}

func TestFusionEquivalenceCuda(t *testing.T) {
	backendtest.FusionEquivalence(t, func() driver.Kernels { return New(kokkos.NewCuda(2, simgpu.Dim2{X: 16, Y: 4})) })
}

// TestLayoutsDiffer: the port must really run LayoutLeft on the device
// space and LayoutRight on the host spaces — the adaptation the paper
// credits Kokkos with — while producing identical physics.
func TestLayoutsDiffer(t *testing.T) {
	hostSpace, devSpace := kokkos.Serial{}, kokkos.NewCuda(1, simgpu.Dim2{})
	host, dev := New(hostSpace), New(devSpace)
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 2
	hostRes := backendtest.Run(t, func() driver.Kernels { return host }, cfg)
	devRes := backendtest.Run(t, func() driver.Kernels { return dev }, cfg)
	if hostSpace.DefaultLayout() == devSpace.DefaultLayout() {
		t.Error("host and device spaces share a layout; expected LayoutRight vs LayoutLeft")
	}
	if d := driver.CompareTotals(hostRes.Final, devRes.Final); d > 1e-9 {
		t.Errorf("layouts changed the physics by %g", d)
	}
}
