// Package registry enumerates every TeaLeaf version in the study — the
// analogue of the paper's Table I, which lists each implementation with
// its build configuration. Benchmarks, the CLI and the reproduction
// harness all construct ports through this table so the version set stays
// consistent everywhere.
//
// Concurrency and ownership: the version table is immutable after package
// init, so Versions, Lookup and friends are safe from any goroutine. A
// Version's Make constructor returns a fresh, unshared port — callers own
// the returned Kernels (and must Close it); the registry keeps no
// reference, which is what lets internal/serve run many instances of the
// same version concurrently.
package registry

import (
	"fmt"
	"runtime"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/cuda"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/kokkosport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/mpi"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/omp"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/openacc"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/opsport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/rajaport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/kokkos"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/raja"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// Arch classifies a version by the architecture class it targets, the
// split the paper's figures use (CPU bars vs GPU bars).
type Arch int

const (
	// CPU versions run on the host processor classes (Xeon, KNL).
	CPU Arch = iota
	// GPU versions run on the accelerator class (P100).
	GPU
)

func (a Arch) String() string {
	if a == GPU {
		return "GPU"
	}
	return "CPU"
}

// Params carries the runtime configuration a version may use, the analogue
// of Table I's compiler flags and environment settings.
type Params struct {
	// Threads per process/team (<= 0: all cores): the host versions' team
	// width and the thread count a GPU version's simulated device runs its
	// blocks on (1 runs every block on the caller's goroutine).
	Threads int
	// Ranks for the distributed versions (<= 0: 4).
	Ranks int
	// Block is the GPU kernel block size (zero: the version's default;
	// the paper fixes OPS CUDA at 64x8).
	Block simgpu.Dim2
	// TileX, TileY for the OPS tiled versions (<= 0: defaults).
	TileX, TileY int
	// TileAuto derives the OPS tile extents from the detected cache
	// topology and the first chain's working set; explicit TileX/TileY win.
	TileAuto bool
}

func (p Params) withDefaults() Params {
	if p.Threads <= 0 {
		p.Threads = runtime.GOMAXPROCS(0)
	}
	if p.Ranks <= 0 {
		p.Ranks = 4
	}
	return p
}

// Version is one row of the study's implementation matrix.
type Version struct {
	// Name is the registry key, e.g. "ops-mpi-tiled".
	Name string
	// Group is the implementation family: Manual, OPS, Kokkos, RAJA.
	Group string
	// Model is the parallel programming model as the paper names it.
	Model string
	// Arch is the architecture class the version targets.
	Arch Arch
	// Notes describes the configuration, standing in for Table I's
	// compiler/flag column.
	Notes string
	// Make constructs a fresh port.
	Make func(Params) (driver.Kernels, error)
}

var versions = []Version{
	{
		Name: "manual-serial", Group: "Manual", Model: "Serial", Arch: CPU,
		Notes: "reference kernels, single goroutine",
		Make:  func(Params) (driver.Kernels, error) { return serial.New(), nil },
	},
	{
		Name: "manual-omp", Group: "Manual", Model: "OpenMP", Arch: CPU,
		Notes: "fork-join row loops on a persistent thread team",
		Make: func(p Params) (driver.Kernels, error) {
			return omp.New(p.withDefaults().Threads), nil
		},
	},
	{
		Name: "manual-mpi", Group: "Manual", Model: "MPI", Arch: CPU,
		Notes: "SPMD ranks, 2D decomposition, eager halo exchange",
		Make: func(p Params) (driver.Kernels, error) {
			return mpi.New(p.withDefaults().Ranks, 1), nil
		},
	},
	{
		Name: "manual-mpi-omp", Group: "Manual", Model: "OpenMP and MPI", Arch: CPU,
		Notes: "ranks x threads hybrid",
		Make: func(p Params) (driver.Kernels, error) {
			p = p.withDefaults()
			ranks := max(1, p.Ranks/2)
			threads := max(2, p.Threads/ranks)
			return mpi.New(ranks, threads), nil
		},
	},
	{
		Name: "manual-openacc-cpu", Group: "Manual", Model: "OpenACC (host)", Arch: CPU,
		Notes: "directive-style single source, -ta=multicore analogue",
		Make: func(p Params) (driver.Kernels, error) {
			return openacc.New(openacc.TargetHost, p.withDefaults().Threads), nil
		},
	},
	{
		Name: "manual-cuda", Group: "Manual", Model: "CUDA", Arch: GPU,
		Notes: "device-resident fields, per-kernel launches, block-size tunable, blocks on -threads",
		Make: func(p Params) (driver.Kernels, error) {
			return cuda.New(p.withDefaults().Threads, p.Block), nil
		},
	},
	{
		Name: "manual-openacc-gpu", Group: "Manual", Model: "OpenACC", Arch: GPU,
		Notes: "same source as the host target, -ta=tesla analogue",
		Make: func(p Params) (driver.Kernels, error) {
			return openacc.New(openacc.TargetDevice, p.withDefaults().Threads), nil
		},
	},
	{
		Name: "ops-openmp", Group: "OPS", Model: "OpenMP", Arch: CPU,
		Notes: "ParLoop DSL, threaded backend",
		Make: func(p Params) (driver.Kernels, error) {
			return opsport.New(opsport.Options{Backend: ops.BackendOpenMP, Threads: p.withDefaults().Threads})
		},
	},
	{
		Name: "ops-mpi", Group: "OPS", Model: "MPI", Arch: CPU,
		Notes: "ParLoop DSL, one serial context per rank",
		Make: func(p Params) (driver.Kernels, error) {
			return opsport.New(opsport.Options{Backend: ops.BackendSerial, Ranks: p.withDefaults().Ranks})
		},
	},
	{
		Name: "ops-mpi-omp", Group: "OPS", Model: "OpenMP and MPI", Arch: CPU,
		Notes: "ParLoop DSL, threaded context per rank",
		Make: func(p Params) (driver.Kernels, error) {
			p = p.withDefaults()
			ranks := max(1, p.Ranks/2)
			threads := max(2, p.Threads/ranks)
			return opsport.New(opsport.Options{Backend: ops.BackendOpenMP, Ranks: ranks, Threads: threads})
		},
	},
	{
		Name: "ops-mpi-tiled", Group: "OPS", Model: "MPI Tiled", Arch: CPU,
		Notes: "lazy execution + skewed cache-block tiling per rank",
		Make: func(p Params) (driver.Kernels, error) {
			p = p.withDefaults()
			return opsport.New(opsport.Options{
				Backend: ops.BackendSerial, Ranks: p.Ranks,
				Tiling: true, TileX: p.TileX, TileY: p.TileY, TileAuto: p.TileAuto,
			})
		},
	},
	{
		Name: "ops-cuda", Group: "OPS", Model: "CUDA", Arch: GPU,
		Notes: "ParLoop DSL on the simulated device, OPS_BLOCK_SIZE 64x8, blocks on -threads",
		Make: func(p Params) (driver.Kernels, error) {
			return opsport.New(opsport.Options{Backend: ops.BackendCUDA, Threads: p.withDefaults().Threads, Block: p.Block})
		},
	},
	{
		Name: "ops-openacc", Group: "OPS", Model: "OpenACC", Arch: GPU,
		Notes: "ParLoop DSL, gang-scheduled ACC backend",
		Make: func(p Params) (driver.Kernels, error) {
			return opsport.New(opsport.Options{Backend: ops.BackendACC, Threads: p.withDefaults().Threads})
		},
	},
	{
		Name: "kokkos-openmp", Group: "Kokkos", Model: "OpenMP", Arch: CPU,
		Notes: "LayoutRight views, MDRange functors on the OpenMP space",
		Make: func(p Params) (driver.Kernels, error) {
			return kokkosport.New(kokkos.NewOpenMP(p.withDefaults().Threads)), nil
		},
	},
	{
		Name: "kokkos-cuda", Group: "Kokkos", Model: "CUDA", Arch: GPU,
		Notes: "LayoutLeft views on the device space, mirrors + deep copies, blocks on -threads",
		Make: func(p Params) (driver.Kernels, error) {
			return kokkosport.New(kokkos.NewCuda(p.withDefaults().Threads, p.Block)), nil
		},
	},
	{
		Name: "raja-openmp", Group: "RAJA", Model: "OpenMP", Arch: CPU,
		Notes: "raw arrays, kernel lambdas under omp_parallel_for_exec",
		Make: func(p Params) (driver.Kernels, error) {
			return rajaport.New(raja.NewOmp(p.withDefaults().Threads)), nil
		},
	},
	{
		Name: "raja-cuda", Group: "RAJA", Model: "CUDA", Arch: GPU,
		Notes: "policy-allocated device arrays under cuda_exec, blocks on -threads",
		Make: func(p Params) (driver.Kernels, error) {
			return rajaport.New(raja.NewCuda(p.withDefaults().Threads, p.Block)), nil
		},
	},
}

// All returns every version, manual ports first, then OPS, Kokkos, RAJA,
// preserving the paper's figure ordering.
func All() []Version { return append([]Version(nil), versions...) }

// Get looks a version up by name.
func Get(name string) (Version, error) {
	for _, v := range versions {
		if v.Name == name {
			return v, nil
		}
	}
	return Version{}, fmt.Errorf("registry: unknown version %q (have %v)", name, Names())
}

// Names lists all version names in registry order.
func Names() []string {
	out := make([]string, len(versions))
	for i, v := range versions {
		out[i] = v.Name
	}
	return out
}

// ByArch returns the versions targeting one architecture class, in
// registry order. The serial reference is excluded (the paper's figures
// chart only the parallel versions).
func ByArch(a Arch) []Version {
	var out []Version
	for _, v := range versions {
		if v.Arch == a && v.Name != "manual-serial" {
			out = append(out, v)
		}
	}
	return out
}
