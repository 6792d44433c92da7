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
// each device version in launches, blocks, transfers and allocations,
// captured before the device ran its blocks on a par.Team. Every version ran
// 21 CG iterations. Since generate_chunk fills density and energy0 with one
// launch on the device, manual-cuda copies nothing up (73,984 bytes H2D
// before, 122 launches over 846 blocks), kokkos-cuda launches once more (123
// over 6,373 before) and raja-cuda's two copy-in launches are one fill (125
// over 6,451 before).
var launchGolden = map[string]simgpu.Stats{
	"manual-cuda": {Launches: 123, BlocksRun: 864, Allocations: 17},
	"ops-cuda":    {Launches: 188, BlocksRun: 1206, Allocations: 17},
	"kokkos-cuda": {Launches: 124, BlocksRun: 6441, Allocations: 17},
	"raja-cuda":   {Launches: 124, BlocksRun: 6383, Allocations: 17},
}

// TestDeviceLaunchGolden pins every device version's device counters: a
// change to how a launch runs its blocks must not change which launches a
// port makes, how many blocks each covers or what crosses the bus.
func TestDeviceLaunchGolden(t *testing.T) {
	cfg := config.BenchmarkN(64)
	cfg.EndStep = 1
	for version, build := range deviceVersions {
		k, dev := build()
		backendtest.Run(t, func() driver.Kernels { return k }, cfg)
		got := dev.Stats()
		want, ok := launchGolden[version]
		if !ok {
			t.Errorf("no golden entry: %q: %#v,", version, got)
			continue
		}
		if got != want {
			t.Errorf("%s: %+v, golden %+v", version, got, want)
		}
	}
}
