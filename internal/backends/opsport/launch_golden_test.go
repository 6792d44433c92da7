package opsport

import (
	"fmt"
	"sort"
	"strings"
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

// deviceVersions builds each simulated-device version on a device of the
// given thread count at its default block size and returns it with its
// device. The table lives in this package because ops-cuda's device belongs
// to its rank's OPS context, which only opsport can reach; a one-rank set is
// what the SPMD runner calls directly.
var deviceVersions = map[string]func(threads int) (driver.Kernels, *simgpu.Device){
	"manual-cuda": func(n int) (driver.Kernels, *simgpu.Device) {
		k := cuda.New(n, simgpu.Dim2{})
		return k, k.Device()
	},
	"ops-cuda": func(n int) (driver.Kernels, *simgpu.Device) {
		rs, err := newRankState(Options{Backend: ops.BackendCUDA, Threads: n}, comm.NewWorld(1).Ranks()[0])
		if err != nil {
			panic(err)
		}
		return rs, rs.ctx.Device()
	},
	"kokkos-cuda": func(n int) (driver.Kernels, *simgpu.Device) {
		space := kokkos.NewCuda(n, simgpu.Dim2{})
		return kokkosport.New(space), space.Device()
	},
	"raja-cuda": func(n int) (driver.Kernels, *simgpu.Device) {
		policy := raja.NewCuda(n, simgpu.Dim2{})
		return rajaport.New(policy), policy.Device()
	},
}

// launchDecks are the decks the device counters are pinned on: one step of
// tea_bm 64² (unpreconditioned CG) and every backendtest.SegmentDecks deck,
// so each solver and preconditioner's launches are counted.
func launchDecks() map[string]config.Config {
	decks := backendtest.SegmentDecks()
	bm := config.BenchmarkN(64)
	bm.EndStep = 1
	decks["tea_bm_64"] = bm
	return decks
}

// launchGolden is what each deck costs each device version in launches,
// blocks, transfers and allocations, keyed version/deck. The manual-cuda,
// kokkos-cuda and raja-cuda rows are the chunk recipe's (internal/backends/chunk):
// copies are launches over the padded extent, the residual and Chebyshev
// operator sweeps are fused with the update after them, block_solve is one
// point per mesh row, and field_summary is four reductions, one per total.
var launchGolden = map[string]simgpu.Stats{
	"kokkos-cuda/cg":                 {Launches: 151, BlocksRun: 5948, Allocations: 17},
	"kokkos-cuda/cg_jac_block":       {Launches: 173, BlocksRun: 6150, Allocations: 17},
	"kokkos-cuda/cg_jac_diag":        {Launches: 145, BlocksRun: 5750, Allocations: 17},
	"kokkos-cuda/chebyshev":          {Launches: 289, BlocksRun: 10952, Allocations: 17},
	"kokkos-cuda/chebyshev_jac_diag": {Launches: 241, BlocksRun: 9548, Allocations: 17},
	"kokkos-cuda/jacobi":             {Launches: 581, BlocksRun: 22010, Allocations: 17},
	"kokkos-cuda/ppcg":               {Launches: 271, BlocksRun: 10358, Allocations: 17},
	"kokkos-cuda/tea_bm_64":          {Launches: 125, BlocksRun: 6505, Allocations: 17},
	"manual-cuda/cg":                 {Launches: 151, BlocksRun: 644, Allocations: 17},
	"manual-cuda/cg_jac_block":       {Launches: 173, BlocksRun: 770, Allocations: 17},
	"manual-cuda/cg_jac_diag":        {Launches: 145, BlocksRun: 622, Allocations: 17},
	"manual-cuda/chebyshev":          {Launches: 289, BlocksRun: 1190, Allocations: 17},
	"manual-cuda/chebyshev_jac_diag": {Launches: 241, BlocksRun: 1030, Allocations: 17},
	"manual-cuda/jacobi":             {Launches: 581, BlocksRun: 2476, Allocations: 17},
	"manual-cuda/ppcg":               {Launches: 271, BlocksRun: 1124, Allocations: 17},
	"manual-cuda/tea_bm_64":          {Launches: 125, BlocksRun: 900, Allocations: 17},
	"ops-cuda/cg":                    {Launches: 232, BlocksRun: 881, Allocations: 17},
	"ops-cuda/cg_jac_block":          {Launches: 246, BlocksRun: 983, Allocations: 17},
	"ops-cuda/cg_jac_diag":           {Launches: 222, BlocksRun: 847, Allocations: 17},
	"ops-cuda/chebyshev":             {Launches: 442, BlocksRun: 1643, Allocations: 17},
	"ops-cuda/chebyshev_jac_diag":    {Launches: 354, BlocksRun: 1363, Allocations: 17},
	"ops-cuda/jacobi":                {Launches: 890, BlocksRun: 3397, Allocations: 17},
	"ops-cuda/ppcg":                  {Launches: 412, BlocksRun: 1541, Allocations: 17},
	"ops-cuda/tea_bm_64":             {Launches: 188, BlocksRun: 1206, Allocations: 17},
	"raja-cuda/cg":                   {Launches: 151, BlocksRun: 4908, Allocations: 17},
	"raja-cuda/cg_jac_block":         {Launches: 173, BlocksRun: 5944, Allocations: 17},
	"raja-cuda/cg_jac_diag":          {Launches: 145, BlocksRun: 4746, Allocations: 17},
	"raja-cuda/chebyshev":            {Launches: 289, BlocksRun: 9024, Allocations: 17},
	"raja-cuda/chebyshev_jac_diag":   {Launches: 241, BlocksRun: 7884, Allocations: 17},
	"raja-cuda/jacobi":               {Launches: 581, BlocksRun: 18214, Allocations: 17},
	"raja-cuda/ppcg":                 {Launches: 271, BlocksRun: 8538, Allocations: 17},
	"raja-cuda/tea_bm_64":            {Launches: 125, BlocksRun: 6447, Allocations: 17},
}

// TestDeviceLaunchGolden pins every device version's device counters on
// every launch deck, on a one-thread and a two-thread device: a change to how
// a launch runs its blocks, or on how many threads, must not change which
// launches a port makes, how many blocks each covers or what crosses the bus.
func TestDeviceLaunchGolden(t *testing.T) {
	var missing []string
	for deck, cfg := range launchDecks() {
		for version, build := range deviceVersions {
			key := version + "/" + deck
			for _, threads := range []int{1, 2} {
				k, dev := build(threads)
				if p := dev.Props().Parallelism; p != threads {
					t.Fatalf("%s: device of %d threads, want %d", version, p, threads)
				}
				backendtest.Run(t, func() driver.Kernels { return k }, cfg)
				got := dev.Stats()
				want, ok := launchGolden[key]
				if !ok {
					missing = append(missing, fmt.Sprintf("\t%q: %#v,", key, got))
					break
				}
				if got != want {
					t.Errorf("%s on %d device threads: %+v, golden %+v", key, threads, got, want)
				}
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("no golden entry for:\n%s", strings.Join(missing, "\n"))
	}
}
