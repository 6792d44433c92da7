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

// segmentVersions are the host versions whose kernels run as row segments
// (the chunk recipe's host policy and the Kokkos and RAJA OpenMP layers,
// ops.RowKernel) instead of one closure call per cell; the simulated-device
// versions are deviceVersions. Host widths, rank counts, block
// and tile sizes are pinned: the table below is bitwise, and shares, chunks
// and blocks set the summation grouping.
var segmentVersions = map[string]Factory{
	"manual-serial":      func() driver.Kernels { return serial.New() },
	"manual-omp":         func() driver.Kernels { return omp.New(2) },
	"manual-openacc-cpu": func() driver.Kernels { return openacc.New(openacc.TargetHost, 2) },
	"manual-openacc-gpu": func() driver.Kernels { return openacc.New(openacc.TargetDevice, 2) },
	"manual-mpi":         func() driver.Kernels { return mpi.New(2, 1) },
	"manual-mpi-omp":     func() driver.Kernels { return mpi.New(2, 2) },
	"ops-openmp":         opsVersion(opsport.Options{Backend: ops.BackendOpenMP, Threads: 2}),
	"ops-mpi":            opsVersion(opsport.Options{Backend: ops.BackendSerial, Ranks: 2}),
	"ops-mpi-omp":        opsVersion(opsport.Options{Backend: ops.BackendOpenMP, Ranks: 2, Threads: 2}),
	"ops-mpi-tiled":      opsVersion(opsport.Options{Backend: ops.BackendSerial, Ranks: 2, Tiling: true, TileX: 16, TileY: 8}),
	"ops-tiled":          opsVersion(opsport.Options{Backend: ops.BackendSerial, Tiling: true, TileX: 16, TileY: 8}),
	"ops-openacc":        opsVersion(opsport.Options{Backend: ops.BackendACC, Threads: 2}),
	"kokkos-openmp":      func() driver.Kernels { return kokkosport.New(kokkos.NewOpenMP(2)) },
	"raja-openmp":        func() driver.Kernels { return rajaport.New(raja.NewOmp(2)) },
}

// deviceVersions are the four simulated-device versions (simgpu.Block.ForRows,
// kokkos.TeamFor, raja.Kernel2DRow segments) on a device of the given thread
// count, at their default block sizes.
var deviceVersions = map[string]func(threads int) driver.Kernels{
	"manual-cuda": func(n int) driver.Kernels { return cuda.New(n, simgpu.Dim2{}) },
	"ops-cuda":    func(n int) driver.Kernels { return opsVersion(opsport.Options{Backend: ops.BackendCUDA, Threads: n})() },
	"kokkos-cuda": func(n int) driver.Kernels { return kokkosport.New(kokkos.NewCuda(n, simgpu.Dim2{})) },
	"raja-cuda":   func(n int) driver.Kernels { return rajaport.New(raja.NewCuda(n, simgpu.Dim2{})) },
}

// deviceThreads are the device thread counts every device version runs at.
// A launch sums its per-block partials in block order whichever thread ran
// each block, so both counts must reach the same golden bits.
var deviceThreads = []int{1, 2}

// segmentCase is one run against the golden tables: version keys the tables,
// label names the run in a failure.
type segmentCase struct {
	version, label string
	factory        Factory
}

// segmentCases are the host versions once and each device version at every
// count in deviceThreads.
func segmentCases() []segmentCase {
	var cases []segmentCase
	for version, factory := range segmentVersions {
		cases = append(cases, segmentCase{version, version, factory})
	}
	for version, build := range deviceVersions {
		for _, n := range deviceThreads {
			label := fmt.Sprintf("%s@%d-thread-device", version, n)
			cases = append(cases, segmentCase{version, label, func() driver.Kernels { return build(n) }})
		}
	}
	return cases
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
// before each port moved to row segments. The Volume words of manual-cuda,
// kokkos-openmp, raja-openmp and raja-cuda were re-captured when the chunk
// recipe summed Volume cell by cell as its own reduction (it had been
// nx·ny·cellVol); their other words did not move.
var segmentGolden = map[string]segmentRun{
	"kokkos-cuda/jacobi":               {138, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999a593d, 0x40089999999a593d}},
	"kokkos-openmp/jacobi":             {138, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x40089999999a591e, 0x40089999999a591e}},
	"manual-cuda/jacobi":               {138, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x40089999999a592f, 0x40089999999a592f}},
	"ops-cuda/jacobi":                  {138, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x40089999999a592f, 0x40089999999a592f}},
	"raja-cuda/jacobi":                 {138, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999a5934, 0x40089999999a5935}},
	"raja-openmp/jacobi":               {138, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x40089999999a591e, 0x40089999999a591e}},
	"kokkos-cuda/cg":                   {24, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999999aa, 0x40089999999999a9}},
	"kokkos-cuda/cg_jac_block":         {20, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x400899999983cf03, 0x400899999983cf03}},
	"kokkos-cuda/cg_jac_diag":          {22, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x400899999981a528, 0x400899999981a528}},
	"kokkos-cuda/chebyshev":            {60, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999999ab, 0x40089999999999aa}},
	"kokkos-cuda/chebyshev_jac_diag":   {40, 0, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x4008999999442d25, 0x4008999999442d25}},
	"kokkos-cuda/ppcg":                 {14, 40, [4]uint64{0x4059000000000000, 0x40c35e6000000001, 0x40089999999999a9, 0x40089999999999a9}},
	"kokkos-openmp/cg":                 {24, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999999998a, 0x400899999999998a}},
	"kokkos-openmp/cg_jac_block":       {20, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999983cee2, 0x400899999983cee2}},
	"kokkos-openmp/cg_jac_diag":        {22, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999981a507, 0x400899999981a507}},
	"kokkos-openmp/chebyshev":          {60, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999999989, 0x4008999999999989}},
	"kokkos-openmp/chebyshev_jac_diag": {40, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999442d06, 0x4008999999442d06}},
	"kokkos-openmp/ppcg":               {14, 40, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999999987, 0x4008999999999987}},
	"manual-cuda/cg":                   {24, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999999999b, 0x400899999999999b}},
	"manual-cuda/cg_jac_block":         {20, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999983cef4, 0x400899999983cef3}},
	"manual-cuda/cg_jac_diag":          {22, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999981a51a, 0x400899999981a51a}},
	"manual-cuda/chebyshev":            {60, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999999999a, 0x400899999999999a}},
	"manual-cuda/chebyshev_jac_diag":   {40, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x4008999999442d18, 0x4008999999442d18}},
	"manual-cuda/ppcg":                 {14, 40, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999999999a, 0x400899999999999b}},
	"ops-cuda/cg":                      {24, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999999999b, 0x400899999999999b}},
	"ops-cuda/cg_jac_block":            {20, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999983cef4, 0x400899999983cef3}},
	"ops-cuda/cg_jac_diag":             {22, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999981a51a, 0x400899999981a51a}},
	"ops-cuda/chebyshev":               {60, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999999999a, 0x400899999999999a}},
	"ops-cuda/chebyshev_jac_diag":      {40, 0, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x4008999999442d18, 0x4008999999442d18}},
	"ops-cuda/ppcg":                    {14, 40, [4]uint64{0x4058fffffffffffa, 0x40c35e5fffffffe2, 0x400899999999999a, 0x400899999999999b}},
	"raja-cuda/cg":                     {24, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999999a0, 0x40089999999999a0}},
	"raja-cuda/cg_jac_block":           {20, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999983cefb, 0x400899999983cefb}},
	"raja-cuda/cg_jac_diag":            {22, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999981a51f, 0x400899999981a51f}},
	"raja-cuda/chebyshev":              {60, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x40089999999999a1, 0x40089999999999a1}},
	"raja-cuda/chebyshev_jac_diag":     {40, 0, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x4008999999442d1d, 0x4008999999442d1d}},
	"raja-cuda/ppcg":                   {14, 40, [4]uint64{0x4059000000000001, 0x40c35e6000000001, 0x400899999999999f, 0x400899999999999f}},
	"raja-openmp/cg":                   {24, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999999998a, 0x400899999999998a}},
	"raja-openmp/cg_jac_block":         {20, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999983cee2, 0x400899999983cee2}},
	"raja-openmp/cg_jac_diag":          {22, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x400899999981a507, 0x400899999981a507}},
	"raja-openmp/chebyshev":            {60, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999999989, 0x4008999999999989}},
	"raja-openmp/chebyshev_jac_diag":   {40, 0, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999442d06, 0x4008999999442d06}},
	"raja-openmp/ppcg":                 {14, 40, [4]uint64{0x405900000000004a, 0x40c35e5ffffffffd, 0x4008999999999987, 0x4008999999999987}},
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

// columnGolden is what kokkos-cuda's column segments reach on each deck,
// captured at the commit before the CUDA, Kokkos and RAJA ports became
// policies over one device recipe, its Volume word re-captured with the
// cell-by-cell Volume sum.
var columnGolden = map[string][4]uint64{
	"cg":                 {0x4058fffffffffffc, 0x40c35e6000000001, 0x40089999999999a4, 0x40089999999999a4},
	"cg_jac_diag":        {0x4058fffffffffffc, 0x40c35e6000000001, 0x400899999981a524, 0x400899999981a524},
	"cg_jac_block":       {0x4058fffffffffffc, 0x40c35e6000000001, 0x400899999983ceff, 0x400899999983ceff},
	"chebyshev":          {0x4058fffffffffffc, 0x40c35e6000000001, 0x40089999999999a7, 0x40089999999999a7},
	"chebyshev_jac_diag": {0x4058fffffffffffc, 0x40c35e6000000001, 0x4008999999442d21, 0x4008999999442d21},
	"ppcg":               {0x4058fffffffffffc, 0x40c35e6000000001, 0x40089999999999a6, 0x40089999999999a6},
	"jacobi":             {0x4058fffffffffffc, 0x40c35e6000000001, 0x40089999999a593a, 0x40089999999a593a},
}

// TestSegmentGolden holds the row-segment ports to the numbers the per-cell
// ports produced: bitwise for every version but one, because a segment walks
// a block row, thread share or tile slice in the order its points ran and
// threads one accumulator through it. kokkos-cuda's LayoutLeft segments are
// mesh columns, so the shared row bodies see the operator's x and y terms
// swapped and its totals may move from the per-cell numbers in the last bits
// (iteration counts may not); columnGolden then pins its column bits exactly.
// Each run is instrumented, so a deck also has to execute the kernel it is
// named after (segmentKernel). Every device version runs at one and at two
// device threads against the same rows.
func TestSegmentGolden(t *testing.T) {
	var missing []string
	for deck, cfg := range SegmentDecks() {
		for _, c := range segmentCases() {
			key, run := c.version+"/"+deck, c.label+"/"+deck
			prof := profiler.New()
			got := segmentRunOf(Run(t, func() driver.Kernels { return driver.Instrument(c.factory(), prof) }, cfg))
			if name, ok := segmentKernel[deck]; ok {
				ran := false
				for _, e := range prof.Entries() {
					ran = ran || e.Name == name && e.Calls > 0
				}
				if !ran {
					t.Errorf("%s: %s never ran", run, name)
				}
			}
			want, ok := segmentGolden[key]
			if !ok {
				missing = append(missing, fmt.Sprintf("\t%q: {%d, %d, [4]uint64{%#x, %#x, %#x, %#x}},",
					key, got.iters, got.inner, got.totals[0], got.totals[1], got.totals[2], got.totals[3]))
				continue
			}
			if got.iters != want.iters || got.inner != want.inner {
				t.Errorf("%s: %d(+%d) iterations, golden %d(+%d)", run, got.iters, got.inner, want.iters, want.inner)
			}
			if c.version == "kokkos-cuda" {
				for i := range got.totals {
					g, w := math.Float64frombits(got.totals[i]), math.Float64frombits(want.totals[i])
					if d := relDiff(g, w); d > 1e-12 {
						t.Errorf("%s: total %d = %v, golden %v (relative %g)", run, i, g, w, d)
					}
				}
				want.totals = columnGolden[deck]
			}
			if got.totals != want.totals {
				t.Errorf("%s: totals %#x, golden %#x", run, got.totals, want.totals)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("no golden entry for:\n%s", strings.Join(missing, "\n"))
	}
}
