package cuda

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/backendtest"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/kokkosport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/rajaport"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/kokkos"
	"github.com/warwick-hpsc/tealeaf-go/internal/raja"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

func TestConformance(t *testing.T) {
	backendtest.Conformance(t, func() driver.Kernels { return New(2, simgpu.Dim2{}) })
}

func TestFusionEquivalence(t *testing.T) {
	backendtest.FusionEquivalence(t, func() driver.Kernels { return New(2, simgpu.Dim2{X: 16, Y: 4}) })
}

// TestBlockSizeInvariance: no device version's physics may depend on the
// launch block shape it is given (reductions combine per block, so sums
// differ in rounding only).
func TestBlockSizeInvariance(t *testing.T) {
	versions := map[string]func(simgpu.Dim2) driver.Kernels{
		"manual-cuda": func(b simgpu.Dim2) driver.Kernels { return New(1, b) },
		"kokkos-cuda": func(b simgpu.Dim2) driver.Kernels { return kokkosport.New(kokkos.NewCuda(1, b)) },
		"raja-cuda":   func(b simgpu.Dim2) driver.Kernels { return rajaport.New(raja.NewCuda(1, b)) },
	}
	cfg := config.BenchmarkN(20)
	cfg.EndStep = 2
	for name, build := range versions {
		t.Run(name, func(t *testing.T) {
			base := backendtest.Run(t, func() driver.Kernels { return build(simgpu.Dim2{}) }, cfg)
			for _, blk := range []simgpu.Dim2{{X: 1, Y: 1}, {X: 7, Y: 3}, {X: 32, Y: 1}, {X: 256, Y: 4}} {
				got := backendtest.Run(t, func() driver.Kernels { return build(blk) }, cfg)
				if d := driver.CompareTotals(base.Final, got.Final); d > 1e-9 {
					t.Errorf("block %v totals diverge by %g", blk, d)
				}
			}
		})
	}
}

// TestDeviceAccounting checks the port really behaves like an accelerator
// port: the initial state is generated on the device, so nothing goes up,
// kernels launch per operation, and nothing leaks back to the host outside
// reductions.
func TestDeviceAccounting(t *testing.T) {
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 1
	k := New(1, simgpu.Dim2{})
	defer k.Close()
	res, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIterations == 0 {
		t.Fatal("no iterations recorded")
	}
	st := k.Device().Stats()
	if st.BytesH2D != 0 || st.BytesD2H != 0 {
		t.Errorf("generate and solve moved %d bytes up and %d down, want none", st.BytesH2D, st.BytesD2H)
	}
	if st.Launches < int64(res.TotalIterations) {
		t.Errorf("expected at least one launch per CG iteration, got %d launches for %d iterations",
			st.Launches, res.TotalIterations)
	}
	if st.Allocations != 17 {
		t.Errorf("expected 17 device buffers, got %d", st.Allocations)
	}
}
