package backendtest

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/cuda"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/kokkosport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/mpi"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/omp"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/openacc"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/opsport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/rajaport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/kokkos"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/profiler"
	"github.com/warwick-hpsc/tealeaf-go/internal/raja"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// opsVersion is an OPS variant as a Factory.
func opsVersion(opt opsport.Options) Factory {
	return func() driver.Kernels {
		k, err := opsport.New(opt)
		if err != nil {
			panic(err)
		}
		return k
	}
}

// segmentVersions are the versions whose kernels run as row segments
// (hostchunk rows, simgpu.Block.ForRows, kokkos.TeamFor, raja.Kernel2DRow,
// ops.RowKernel) instead of one closure call per cell. Host widths, rank
// counts, block and tile sizes are pinned: the table below is bitwise, and
// shares, chunks and blocks set the summation grouping.
var segmentVersions = map[string]Factory{
	"manual-serial":      func() driver.Kernels { return serial.New() },
	"manual-omp":         func() driver.Kernels { return omp.New(2) },
	"manual-openacc-cpu": func() driver.Kernels { return openacc.New(openacc.TargetHost, 2) },
	"manual-openacc-gpu": func() driver.Kernels { return openacc.New(openacc.TargetDevice, 2) },
	"manual-cuda":        func() driver.Kernels { return cuda.New(simgpu.Dim2{}) },
	"manual-mpi":         func() driver.Kernels { return mpi.New(2, 1) },
	"manual-mpi-omp":     func() driver.Kernels { return mpi.New(2, 2) },
	"ops-cuda":           opsVersion(opsport.Options{Backend: ops.BackendCUDA}),
	"ops-openmp":         opsVersion(opsport.Options{Backend: ops.BackendOpenMP, Threads: 2}),
	"ops-mpi":            opsVersion(opsport.Options{Backend: ops.BackendSerial, Ranks: 2}),
	"ops-mpi-omp":        opsVersion(opsport.Options{Backend: ops.BackendOpenMP, Ranks: 2, Threads: 2}),
	"ops-mpi-tiled":      opsVersion(opsport.Options{Backend: ops.BackendSerial, Ranks: 2, Tiling: true, TileX: 16, TileY: 8}),
	"ops-tiled":          opsVersion(opsport.Options{Backend: ops.BackendSerial, Tiling: true, TileX: 16, TileY: 8}),
	"ops-openacc":        opsVersion(opsport.Options{Backend: ops.BackendACC, Threads: 2}),
	"kokkos-openmp":      func() driver.Kernels { return kokkosport.New(kokkos.NewOpenMP(2)) },
	"kokkos-cuda":        func() driver.Kernels { return kokkosport.New(kokkos.NewCuda(simgpu.Dim2{})) },
	"raja-openmp":        func() driver.Kernels { return rajaport.New(raja.NewOmp(2)) },
	"raja-cuda":          func() driver.Kernels { return rajaport.New(raja.NewCuda(simgpu.Dim2{})) },
}

// segmentDecks is tea_bm on a non-square 48x40 mesh (neither extent a
// multiple of any default block edge) under every solver and preconditioner
// the ports have a body for. Five bootstrap CG iterations leave Chebyshev and
// PPCG most of each solve (at the default 20 this mesh converges inside the
// bootstrap and their kernels never run).
func segmentDecks() map[string]config.Config {
	deck := func(mutate func(*config.Config)) config.Config {
		cfg := config.BenchmarkN(48)
		cfg.NY = 40
		cfg.EndStep = 2
		mutate(&cfg)
		return cfg
	}
	return map[string]config.Config{
		"cg":           deck(func(*config.Config) {}),
		"cg_jac_diag":  deck(func(c *config.Config) { c.Preconditioner = config.PrecondJacDiag }),
		"cg_jac_block": deck(func(c *config.Config) { c.Preconditioner = config.PrecondJacBlock }),
		"chebyshev":    deck(func(c *config.Config) { c.Solver, c.EigenCGIters = config.SolverChebyshev, 5 }),
		"chebyshev_jac_diag": deck(func(c *config.Config) {
			c.Solver, c.EigenCGIters, c.Preconditioner = config.SolverChebyshev, 5, config.PrecondJacDiag
		}),
		"ppcg": deck(func(c *config.Config) { c.Solver, c.EigenCGIters = config.SolverPPCG, 5 }),
		"jacobi": deck(func(c *config.Config) {
			// Eps above the rounding floor, where the stopping iteration is
			// set by noise in the summed change.
			c.Solver, c.Eps, c.MaxIters = config.SolverJacobi, 1e-10, 20000
		}),
	}
}

// segmentKernel names, per deck, the kernel the deck exists to run: a deck
// that converges before reaching it pins nothing about it.
var segmentKernel = map[string]string{
	"chebyshev":          "cheby_iterate",
	"chebyshev_jac_diag": "cheby_iterate",
	"ppcg":               "ppcg_inner_iterate",
	"jacobi":             "jacobi_solve",
}

// segmentRun is one row of the golden table: outer and inner iteration
// counts and the IEEE bits of Volume, Mass, InternalEnergy, Temperature.
type segmentRun struct {
	iters, inner int
	totals       [4]uint64
}

func segmentRunOf(res driver.Result) segmentRun {
	f := res.Final
	return segmentRun{res.TotalIterations, res.TotalInner, [4]uint64{
		math.Float64bits(f.Volume), math.Float64bits(f.Mass),
		math.Float64bits(f.InternalEnergy), math.Float64bits(f.Temperature)}}
}

// segmentGolden was captured from the per-cell closure kernels: the commit
// before each port moved to row segments.
var segmentGolden = map[string]segmentRun{
	"kokkos-cuda/jacobi":               {138, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999a593d, 0x40089999999a593d}},
	"kokkos-openmp/jacobi":             {138, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x40089999999a591e, 0x40089999999a591e}},
	"manual-cuda/jacobi":               {138, 0, [4]uint64{0x4059000000000000, 0x40c35e5fffffffe2, 0x40089999999a592f, 0x40089999999a592f}},
	"ops-cuda/jacobi":                  {138, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x40089999999a592f, 0x40089999999a592f}},
	"raja-cuda/jacobi":                 {138, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999a5934, 0x40089999999a5935}},
	"raja-openmp/jacobi":               {138, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x40089999999a591e, 0x40089999999a591e}},
	"kokkos-cuda/cg":                   {24, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999999aa, 0x40089999999999a9}},
	"kokkos-cuda/cg_jac_block":         {20, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x400899999983cf03, 0x400899999983cf03}},
	"kokkos-cuda/cg_jac_diag":          {22, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x400899999981a528, 0x400899999981a528}},
	"kokkos-cuda/chebyshev":            {60, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999999ab, 0x40089999999999aa}},
	"kokkos-cuda/chebyshev_jac_diag":   {40, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x4008999999442d25, 0x4008999999442d25}},
	"kokkos-cuda/ppcg":                 {14, 40, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999999a9, 0x40089999999999a9}},
	"kokkos-openmp/cg":                 {24, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x400899999999998a, 0x400899999999998a}},
	"kokkos-openmp/cg_jac_block":       {20, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x400899999983cee2, 0x400899999983cee2}},
	"kokkos-openmp/cg_jac_diag":        {22, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x400899999981a507, 0x400899999981a507}},
	"kokkos-openmp/chebyshev":          {60, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x4008999999999989, 0x4008999999999989}},
	"kokkos-openmp/chebyshev_jac_diag": {40, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x4008999999442d06, 0x4008999999442d06}},
	"kokkos-openmp/ppcg":               {14, 40, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x4008999999999987, 0x4008999999999987}},
	"manual-cuda/cg":                   {24, 0, [4]uint64{0x4059000000000000, 0x40c35e5fffffffe2, 0x400899999999999b, 0x400899999999999b}},
	"manual-cuda/cg_jac_block":         {20, 0, [4]uint64{0x4059000000000000, 0x40c35e5fffffffe2, 0x400899999983cef4, 0x400899999983cef3}},
	"manual-cuda/cg_jac_diag":          {22, 0, [4]uint64{0x4059000000000000, 0x40c35e5fffffffe2, 0x400899999981a51a, 0x400899999981a51a}},
	"manual-cuda/chebyshev":            {60, 0, [4]uint64{0x4059000000000000, 0x40c35e5fffffffe2, 0x400899999999999a, 0x400899999999999a}},
	"manual-cuda/chebyshev_jac_diag":   {40, 0, [4]uint64{0x4059000000000000, 0x40c35e5fffffffe2, 0x4008999999442d18, 0x4008999999442d18}},
	"manual-cuda/ppcg":                 {14, 40, [4]uint64{0x4059000000000000, 0x40c35e5fffffffe2, 0x400899999999999a, 0x400899999999999b}},
	"ops-cuda/cg":                      {24, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999999999b, 0x400899999999999b}},
	"ops-cuda/cg_jac_block":            {20, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999983cef4, 0x400899999983cef3}},
	"ops-cuda/cg_jac_diag":             {22, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999981a51a, 0x400899999981a51a}},
	"ops-cuda/chebyshev":               {60, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999999999a, 0x400899999999999a}},
	"ops-cuda/chebyshev_jac_diag":      {40, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x4008999999442d18, 0x4008999999442d18}},
	"ops-cuda/ppcg":                    {14, 40, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999999999a, 0x400899999999999b}},
	"raja-cuda/cg":                     {24, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999999a0, 0x40089999999999a0}},
	"raja-cuda/cg_jac_block":           {20, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x400899999983cefb, 0x400899999983cefb}},
	"raja-cuda/cg_jac_diag":            {22, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x400899999981a51f, 0x400899999981a51f}},
	"raja-cuda/chebyshev":              {60, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999999a1, 0x40089999999999a1}},
	"raja-cuda/chebyshev_jac_diag":     {40, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x4008999999442d1d, 0x4008999999442d1d}},
	"raja-cuda/ppcg":                   {14, 40, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x400899999999999f, 0x400899999999999f}},
	"raja-openmp/cg":                   {24, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x400899999999998a, 0x400899999999998a}},
	"raja-openmp/cg_jac_block":         {20, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x400899999983cee2, 0x400899999983cee2}},
	"raja-openmp/cg_jac_diag":          {22, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x400899999981a507, 0x400899999981a507}},
	"raja-openmp/chebyshev":            {60, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x4008999999999989, 0x4008999999999989}},
	"raja-openmp/chebyshev_jac_diag":   {40, 0, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x4008999999442d06, 0x4008999999442d06}},
	"raja-openmp/ppcg":                 {14, 40, [4]uint64{0x4059000000000000, 0x40c35e5ffffffffd, 0x4008999999999987, 0x4008999999999987}},
	// The six OPS variants beyond ops-cuda, captured at the commit before
	// internal/ops kept one kernel form per loop.
	"ops-mpi-omp/cg":                   {24, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999999a5, 0x40089999999999a5}},
	"ops-mpi-omp/cg_jac_block":         {20, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x400899999983cf00, 0x400899999983cf00}},
	"ops-mpi-omp/cg_jac_diag":          {22, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x400899999981a524, 0x400899999981a524}},
	"ops-mpi-omp/chebyshev":            {60, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999999a6, 0x40089999999999a6}},
	"ops-mpi-omp/chebyshev_jac_diag":   {40, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x4008999999442d22, 0x4008999999442d22}},
	"ops-mpi-omp/jacobi":               {138, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999a5936, 0x40089999999a5938}},
	"ops-mpi-omp/ppcg":                 {14, 40, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999999a4, 0x40089999999999a4}},
	"ops-mpi-tiled/cg":                 {24, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999999a5, 0x40089999999999a5}},
	"ops-mpi-tiled/cg_jac_block":       {20, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x400899999983cf00, 0x400899999983cf00}},
	"ops-mpi-tiled/cg_jac_diag":        {22, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x400899999981a524, 0x400899999981a524}},
	"ops-mpi-tiled/chebyshev":          {60, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999999a6, 0x40089999999999a6}},
	"ops-mpi-tiled/chebyshev_jac_diag": {40, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x4008999999442d22, 0x4008999999442d22}},
	"ops-mpi-tiled/jacobi":             {138, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999a5936, 0x40089999999a5938}},
	"ops-mpi-tiled/ppcg":               {14, 40, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999999a4, 0x40089999999999a4}},
	"ops-mpi/cg":                       {24, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999999a5, 0x40089999999999a5}},
	"ops-mpi/cg_jac_block":             {20, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x400899999983cf00, 0x400899999983cf00}},
	"ops-mpi/cg_jac_diag":              {22, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x400899999981a524, 0x400899999981a524}},
	"ops-mpi/chebyshev":                {60, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999999a6, 0x40089999999999a6}},
	"ops-mpi/chebyshev_jac_diag":       {40, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x4008999999442d22, 0x4008999999442d22}},
	"ops-mpi/jacobi":                   {138, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999a5936, 0x40089999999a5938}},
	"ops-mpi/ppcg":                     {14, 40, [4]uint64{0x4059000000000001, 0x40c35e6000000002, 0x40089999999999a4, 0x40089999999999a4}},
	"ops-openacc/cg":                   {24, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999999a0, 0x40089999999999a0}},
	"ops-openacc/cg_jac_block":         {20, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999983cefb, 0x400899999983cefb}},
	"ops-openacc/cg_jac_diag":          {22, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999981a51f, 0x400899999981a51f}},
	"ops-openacc/chebyshev":            {60, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999999a1, 0x40089999999999a1}},
	"ops-openacc/chebyshev_jac_diag":   {40, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x4008999999442d1d, 0x4008999999442d1d}},
	"ops-openacc/jacobi":               {138, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999a5934, 0x40089999999a5935}},
	"ops-openacc/ppcg":                 {14, 40, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999999999f, 0x400899999999999f}},
	"ops-openmp/cg":                    {24, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999999a0, 0x40089999999999a0}},
	"ops-openmp/cg_jac_block":          {20, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999983cefb, 0x400899999983cefb}},
	"ops-openmp/cg_jac_diag":           {22, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999981a51f, 0x400899999981a51f}},
	"ops-openmp/chebyshev":             {60, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999999a1, 0x40089999999999a1}},
	"ops-openmp/chebyshev_jac_diag":    {40, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x4008999999442d1d, 0x4008999999442d1d}},
	"ops-openmp/jacobi":                {138, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999a5934, 0x40089999999a5935}},
	"ops-openmp/ppcg":                  {14, 40, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999999999f, 0x400899999999999f}},
	"ops-tiled/cg":                     {24, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999999a0, 0x40089999999999a0}},
	"ops-tiled/cg_jac_block":           {20, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999983cefb, 0x400899999983cefb}},
	"ops-tiled/cg_jac_diag":            {22, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999981a51f, 0x400899999981a51f}},
	"ops-tiled/chebyshev":              {60, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999999a1, 0x40089999999999a1}},
	"ops-tiled/chebyshev_jac_diag":     {40, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x4008999999442d1d, 0x4008999999442d1d}},
	"ops-tiled/jacobi":                 {138, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999a5934, 0x40089999999a5935}},
	"ops-tiled/ppcg":                   {14, 40, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999999999f, 0x400899999999999f}},
	// The two manual MPI builds, captured at the commit before their ranks
	// ran under one shared SPMD runner.
	"manual-mpi-omp/cg":                 {24, 0, [4]uint64{0x4058ffffffffffdb, 0x40c35e6000000002, 0x400899999999998b, 0x400899999999998b}},
	"manual-mpi-omp/cg_jac_block":       {20, 0, [4]uint64{0x4058ffffffffffdb, 0x40c35e6000000002, 0x400899999983cee1, 0x400899999983cee1}},
	"manual-mpi-omp/cg_jac_diag":        {22, 0, [4]uint64{0x4058ffffffffffdb, 0x40c35e6000000002, 0x400899999981a507, 0x400899999981a507}},
	"manual-mpi-omp/chebyshev":          {60, 0, [4]uint64{0x4058ffffffffffdb, 0x40c35e6000000002, 0x4008999999999988, 0x4008999999999988}},
	"manual-mpi-omp/chebyshev_jac_diag": {40, 0, [4]uint64{0x4058ffffffffffdb, 0x40c35e6000000002, 0x4008999999442d06, 0x4008999999442d06}},
	"manual-mpi-omp/jacobi":             {138, 0, [4]uint64{0x4058ffffffffffdb, 0x40c35e6000000002, 0x40089999999a591d, 0x40089999999a591d}},
	"manual-mpi-omp/ppcg":               {14, 40, [4]uint64{0x4058ffffffffffdb, 0x40c35e6000000002, 0x4008999999999988, 0x4008999999999988}},
	"manual-mpi/cg":                     {24, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999999998a, 0x400899999999998a}},
	"manual-mpi/cg_jac_block":           {20, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999983cee2, 0x400899999983cee2}},
	"manual-mpi/cg_jac_diag":            {22, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999981a507, 0x400899999981a507}},
	"manual-mpi/chebyshev":              {60, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999999989, 0x4008999999999989}},
	"manual-mpi/chebyshev_jac_diag":     {40, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999442d06, 0x4008999999442d06}},
	"manual-mpi/jacobi":                 {138, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x40089999999a591e, 0x40089999999a591e}},
	"manual-mpi/ppcg":                   {14, 40, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999999987, 0x4008999999999987}},
	// The four host-chunk versions the table did not hold, captured at the
	// commit before every port's CGCalcW/CGCalcUR became its one-sweep body.
	"manual-omp/cg":                         {24, 0, [4]uint64{0x4058ffffffffffea, 0x40c35e5fffffff99, 0x4008999999999948, 0x4008999999999948}},
	"manual-omp/cg_jac_block":               {20, 0, [4]uint64{0x4058ffffffffffea, 0x40c35e5fffffff99, 0x400899999983cea0, 0x400899999983cea0}},
	"manual-omp/cg_jac_diag":                {22, 0, [4]uint64{0x4058ffffffffffea, 0x40c35e5fffffff99, 0x400899999981a4c5, 0x400899999981a4c5}},
	"manual-omp/chebyshev":                  {60, 0, [4]uint64{0x4058ffffffffffea, 0x40c35e5fffffff99, 0x4008999999999947, 0x4008999999999947}},
	"manual-omp/chebyshev_jac_diag":         {40, 0, [4]uint64{0x4058ffffffffffea, 0x40c35e5fffffff99, 0x4008999999442cc4, 0x4008999999442cc4}},
	"manual-omp/jacobi":                     {138, 0, [4]uint64{0x4058ffffffffffea, 0x40c35e5fffffff99, 0x40089999999a58dc, 0x40089999999a58dc}},
	"manual-omp/ppcg":                       {14, 40, [4]uint64{0x4058ffffffffffea, 0x40c35e5fffffff99, 0x4008999999999945, 0x4008999999999945}},
	"manual-openacc-cpu/cg":                 {24, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999999998a, 0x400899999999998a}},
	"manual-openacc-cpu/cg_jac_block":       {20, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999983cee2, 0x400899999983cee2}},
	"manual-openacc-cpu/cg_jac_diag":        {22, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999981a507, 0x400899999981a507}},
	"manual-openacc-cpu/chebyshev":          {60, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999999989, 0x4008999999999989}},
	"manual-openacc-cpu/chebyshev_jac_diag": {40, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999442d06, 0x4008999999442d06}},
	"manual-openacc-cpu/jacobi":             {138, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x40089999999a591e, 0x40089999999a591e}},
	"manual-openacc-cpu/ppcg":               {14, 40, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999999987, 0x4008999999999987}},
	"manual-openacc-gpu/cg":                 {24, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999999998a, 0x400899999999998a}},
	"manual-openacc-gpu/cg_jac_block":       {20, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999983cee2, 0x400899999983cee2}},
	"manual-openacc-gpu/cg_jac_diag":        {22, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999981a507, 0x400899999981a507}},
	"manual-openacc-gpu/chebyshev":          {60, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999999989, 0x4008999999999989}},
	"manual-openacc-gpu/chebyshev_jac_diag": {40, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999442d06, 0x4008999999442d06}},
	"manual-openacc-gpu/jacobi":             {138, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x40089999999a591e, 0x40089999999a591e}},
	"manual-openacc-gpu/ppcg":               {14, 40, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999999987, 0x4008999999999987}},
	"manual-serial/cg":                      {24, 0, [4]uint64{0x4058ffffffffff6b, 0x40c35e6000000005, 0x4008999999999930, 0x4008999999999930}},
	"manual-serial/cg_jac_block":            {20, 0, [4]uint64{0x4058ffffffffff6b, 0x40c35e6000000005, 0x400899999983ce88, 0x400899999983ce88}},
	"manual-serial/cg_jac_diag":             {22, 0, [4]uint64{0x4058ffffffffff6b, 0x40c35e6000000005, 0x400899999981a4ad, 0x400899999981a4ad}},
	"manual-serial/chebyshev":               {60, 0, [4]uint64{0x4058ffffffffff6b, 0x40c35e6000000005, 0x400899999999992f, 0x400899999999992f}},
	"manual-serial/chebyshev_jac_diag":      {40, 0, [4]uint64{0x4058ffffffffff6b, 0x40c35e6000000005, 0x4008999999442cac, 0x4008999999442cac}},
	"manual-serial/jacobi":                  {138, 0, [4]uint64{0x4058ffffffffff6b, 0x40c35e6000000005, 0x40089999999a58c4, 0x40089999999a58c4}},
	"manual-serial/ppcg":                    {14, 40, [4]uint64{0x4058ffffffffff6b, 0x40c35e6000000005, 0x400899999999992d, 0x400899999999992d}},
}

// TestSegmentGolden holds the row-segment ports to the numbers the per-cell
// ports produced: bitwise for every version but one, because a segment walks
// a block row, thread share or tile slice in the order its points ran and
// threads one accumulator through it. kokkos-cuda's LayoutLeft segments are
// mesh columns, so the shared row bodies see the operator's x and y terms
// swapped and its totals may move in the last bits; iteration counts may not.
// Each run is instrumented, so a deck also has to execute the kernel it is
// named after (segmentKernel).
func TestSegmentGolden(t *testing.T) {
	var missing []string
	for deck, cfg := range segmentDecks() {
		for version, factory := range segmentVersions {
			key := version + "/" + deck
			prof := profiler.New()
			got := segmentRunOf(Run(t, func() driver.Kernels { return driver.Instrument(factory(), prof) }, cfg))
			if name, ok := segmentKernel[deck]; ok {
				if e, _ := prof.Lookup(name); e.Calls == 0 {
					t.Errorf("%s: %s never ran", key, name)
				}
			}
			want, ok := segmentGolden[key]
			if !ok {
				missing = append(missing, fmt.Sprintf("\t%q: {%d, %d, [4]uint64{%#x, %#x, %#x, %#x}},",
					key, got.iters, got.inner, got.totals[0], got.totals[1], got.totals[2], got.totals[3]))
				continue
			}
			if got.iters != want.iters || got.inner != want.inner {
				t.Errorf("%s: %d(+%d) iterations, golden %d(+%d)", key, got.iters, got.inner, want.iters, want.inner)
			}
			if version != "kokkos-cuda" {
				if got.totals != want.totals {
					t.Errorf("%s: totals %#x, golden %#x", key, got.totals, want.totals)
				}
				continue
			}
			for i := range got.totals {
				g, w := math.Float64frombits(got.totals[i]), math.Float64frombits(want.totals[i])
				if d := relDiff(g, w); d > 1e-12 {
					t.Errorf("%s: total %d = %v, golden %v (relative %g)", key, i, g, w, d)
				}
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("no golden entry for:\n%s", strings.Join(missing, "\n"))
	}
}
