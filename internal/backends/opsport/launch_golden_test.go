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
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
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
// blocks, transfers and allocations, keyed version/deck. Every row is the
// chunk recipe's (internal/backends/chunk): copies are launches over the
// padded extent, the residual and Chebyshev operator sweeps are fused with the
// update after them, block_solve is one point per mesh row, field_summary is
// four reductions, one per total, and a reflective exchange is one launch per
// side. ops-cuda runs the same recipe, so it has no rows of its own:
// TestDeviceLaunchGolden holds it to manual-cuda's counters.
var launchGolden = map[string]simgpu.Stats{
	"kokkos-cuda/cg":                 {Launches: 211, BlocksRun: 7496, Allocations: 17},
	"kokkos-cuda/cg_jac_block":       {Launches: 225, BlocksRun: 7494, Allocations: 17},
	"kokkos-cuda/cg_jac_diag":        {Launches: 201, BlocksRun: 7196, Allocations: 17},
	"kokkos-cuda/chebyshev":          {Launches: 421, BlocksRun: 14336, Allocations: 17},
	"kokkos-cuda/chebyshev_jac_diag": {Launches: 333, BlocksRun: 11912, Allocations: 17},
	"kokkos-cuda/jacobi":             {Launches: 869, BlocksRun: 29372, Allocations: 17},
	"kokkos-cuda/ppcg":               {Launches: 391, BlocksRun: 13436, Allocations: 17},
	"kokkos-cuda/tea_bm_64":          {Launches: 175, BlocksRun: 8192, Allocations: 17},
	"manual-cuda/cg":                 {Launches: 211, BlocksRun: 824, Allocations: 17},
	"manual-cuda/cg_jac_block":       {Launches: 225, BlocksRun: 926, Allocations: 17},
	"manual-cuda/cg_jac_diag":        {Launches: 201, BlocksRun: 790, Allocations: 17},
	"manual-cuda/chebyshev":          {Launches: 421, BlocksRun: 1586, Allocations: 17},
	"manual-cuda/chebyshev_jac_diag": {Launches: 333, BlocksRun: 1306, Allocations: 17},
	"manual-cuda/jacobi":             {Launches: 869, BlocksRun: 3340, Allocations: 17},
	"manual-cuda/ppcg":               {Launches: 391, BlocksRun: 1484, Allocations: 17},
	"manual-cuda/tea_bm_64":          {Launches: 175, BlocksRun: 1150, Allocations: 17},
	"raja-cuda/cg":                   {Launches: 211, BlocksRun: 6144, Allocations: 17},
	"raja-cuda/cg_jac_block":         {Launches: 225, BlocksRun: 7016, Allocations: 17},
	"raja-cuda/cg_jac_diag":          {Launches: 201, BlocksRun: 5900, Allocations: 17},
	"raja-cuda/chebyshev":            {Launches: 421, BlocksRun: 11736, Allocations: 17},
	"raja-cuda/chebyshev_jac_diag":   {Launches: 333, BlocksRun: 9776, Allocations: 17},
	"raja-cuda/jacobi":               {Launches: 869, BlocksRun: 24124, Allocations: 17},
	"raja-cuda/ppcg":                 {Launches: 391, BlocksRun: 11004, Allocations: 17},
	"raja-cuda/tea_bm_64":            {Launches: 175, BlocksRun: 8076, Allocations: 17},
}

// TestDeviceLaunchGolden pins every device version's device counters on
// every launch deck, on a one-thread and a two-thread device: a change to how
// a launch runs its blocks, or on how many threads, must not change which
// launches a port makes, how many blocks each covers or what crosses the bus.
// ops-cuda must match manual-cuda exactly: the same recipe under the OPS
// policy makes one loop, and so one launch of the same grid, per launch. After
// each deck one FetchField and one RestoreField cross the bus, and ops-cuda's
// transfers must match manual-cuda's too.
func TestDeviceLaunchGolden(t *testing.T) {
	var missing []string
	for deck, cfg := range launchDecks() {
		for _, threads := range []int{1, 2} {
			stats, trips := map[string]simgpu.Stats{}, map[string]simgpu.Stats{}
			for version, build := range deviceVersions {
				k, dev := build(threads)
				if p := dev.Props().Parallelism; p != threads {
					t.Fatalf("%s: device of %d threads, want %d", version, p, threads)
				}
				if _, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil); err != nil {
					t.Fatalf("%s: %v", version, err)
				}
				stats[version] = dev.Stats()
				k.RestoreField(driver.FieldU, k.FetchField(driver.FieldU))
				trips[version] = dev.Stats()
				k.Close()
			}
			if got, want := stats["ops-cuda"], stats["manual-cuda"]; got != want {
				t.Errorf("ops-cuda/%s on %d device threads: %+v, manual-cuda %+v", deck, threads, got, want)
			}
			if got, want := trips["ops-cuda"], trips["manual-cuda"]; got != want || got.BytesD2H == 0 || got.BytesH2D == 0 {
				t.Errorf("ops-cuda/%s on %d device threads after a fetch and a restore: %+v, manual-cuda %+v", deck, threads, got, want)
			}
			for version, got := range stats {
				key := version + "/" + deck
				want, ok := launchGolden[key]
				switch {
				case version == "ops-cuda":
				case !ok && threads == 1:
					missing = append(missing, fmt.Sprintf("\t%q: %#v,", key, got))
				case ok && got != want:
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
