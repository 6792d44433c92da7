package opsport

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/backendtest"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/cuda"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/kokkosport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/rajaport"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/kokkos"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/raja"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// deviceVersions builds each simulated-device version at its default block
// size and returns it with its device. The table lives in this package
// because ops-cuda's device belongs to its rank's OPS context, which only
// opsport can reach; a one-rank set is what the SPMD runner calls directly.
var deviceVersions = map[string]func() (driver.Kernels, *simgpu.Device){
	"manual-cuda": func() (driver.Kernels, *simgpu.Device) {
		k := cuda.New(simgpu.Dim2{})
		return k, k.Device()
	},
	"ops-cuda": func() (driver.Kernels, *simgpu.Device) {
		rs, err := newRankState(Options{Backend: ops.BackendCUDA}, comm.NewWorld(1).Ranks()[0])
		if err != nil {
			panic(err)
		}
		return rs, rs.ctx.Device()
	},
	"kokkos-cuda": func() (driver.Kernels, *simgpu.Device) {
		space := kokkos.NewCuda(simgpu.Dim2{})
		return kokkosport.New(space), space.Device()
	},
	"raja-cuda": func() (driver.Kernels, *simgpu.Device) {
		policy := raja.NewCuda(simgpu.Dim2{})
		return rajaport.New(policy), policy.Device()
	},
}

// launchGolden is what one step of tea_bm 64² (unpreconditioned CG) costs
// each device version in launches and blocks, captured before the device ran
// its blocks on a par.Team.
// Every version ran 21 CG iterations.
var launchGolden = map[string]simgpu.Stats{
	"manual-cuda": {Launches: 122, BlocksRun: 846},
	"ops-cuda":    {Launches: 188, BlocksRun: 1206},
	"kokkos-cuda": {Launches: 123, BlocksRun: 6373},
	"raja-cuda":   {Launches: 125, BlocksRun: 6451},
}

// TestDeviceLaunchGolden pins every device version's launch and block counts:
// a change to how a launch runs its blocks must not change which launches a
// port makes or how many blocks each covers.
func TestDeviceLaunchGolden(t *testing.T) {
	cfg := config.BenchmarkN(64)
	cfg.EndStep = 1
	for version, build := range deviceVersions {
		k, dev := build()
		backendtest.Run(t, func() driver.Kernels { return k }, cfg)
		got := dev.Stats()
		want, ok := launchGolden[version]
		if !ok {
			t.Errorf("no golden entry: %q: {Launches: %d, BlocksRun: %d},", version, got.Launches, got.BlocksRun)
			continue
		}
		if got.Launches != want.Launches || got.BlocksRun != want.BlocksRun {
			t.Errorf("%s: %d launches over %d blocks, golden %d over %d", version, got.Launches, got.BlocksRun, want.Launches, want.BlocksRun)
		}
	}
}
