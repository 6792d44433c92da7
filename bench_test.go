// Benchmarks regenerating the paper's evaluation artefacts with real Go
// execution at reduced mesh sizes (the paper-scale modeled numbers come
// from cmd/teabench). One benchmark family per table/figure:
//
//	BenchmarkFig1a  — 1000^2 CPU versions   (proxy mesh 128^2)
//	BenchmarkFig1b  — 1000^2 GPU versions   (proxy mesh 128^2)
//	BenchmarkFig2a  — 4000^2 CPU versions   (proxy mesh 256^2)
//	BenchmarkFig2b  — 4000^2 GPU versions   (proxy mesh 256^2)
//	BenchmarkTableIII — the portability analysis pipeline
//	BenchmarkOPSTiling — the tiling ablation behind "OPS MPI Tiled"
//	BenchmarkBlockSize — the CUDA block-size tuning the paper fixes at 64x8
//	BenchmarkSolvers — CG vs Chebyshev vs PPCG vs Jacobi
//	BenchmarkSDCOverhead — the ABFT invariant monitor at its default cadence
//
// Mesh sizes are scaled so the whole suite runs in minutes on a laptop;
// relative ordering between versions is what these benches report, and
// per-run solver iterations are attached as metrics.
package tealeaf_test

import (
	"testing"

	tealeaf "github.com/warwick-hpsc/tealeaf-go"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/perfmodel"
	"github.com/warwick-hpsc/tealeaf-go/internal/portability"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"

	opsport "github.com/warwick-hpsc/tealeaf-go/internal/backends/opsport"
)

const (
	smallProxyN = 128 // stands in for the paper's 1000^2 dataset
	largeProxyN = 256 // stands in for the paper's 4000^2 dataset
	benchSteps  = 2
)

// benchVersion runs one registry version to completion per iteration.
func benchVersion(b *testing.B, name string, n int) {
	b.Helper()
	cfg := config.BenchmarkN(n)
	cfg.EndStep = benchSteps
	v, err := registry.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	cells := int64(n) * int64(n)
	b.SetBytes(cells * 8) // one field sweep per "byte op" unit, for rough GB/s comparison
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k, err := v.Make(registry.Params{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
		b.StopTimer()
		k.Close()
		b.StartTimer()
		if err != nil {
			b.Fatal(err)
		}
		iters = res.TotalIterations
	}
	b.ReportMetric(float64(iters), "solver-iters")
}

func benchArch(b *testing.B, arch registry.Arch, n int) {
	b.Helper()
	for _, v := range registry.ByArch(arch) {
		v := v
		b.Run(v.Name, func(b *testing.B) { benchVersion(b, v.Name, n) })
	}
}

// BenchmarkFig1a measures the CPU-class versions at the small dataset
// (paper Figure 1a).
func BenchmarkFig1a(b *testing.B) { benchArch(b, registry.CPU, smallProxyN) }

// BenchmarkFig1b measures the GPU-class versions at the small dataset
// (paper Figure 1b).
func BenchmarkFig1b(b *testing.B) { benchArch(b, registry.GPU, smallProxyN) }

// BenchmarkFig2a measures the CPU-class versions at the large dataset
// (paper Figure 2a).
func BenchmarkFig2a(b *testing.B) { benchArch(b, registry.CPU, largeProxyN) }

// BenchmarkFig2b measures the GPU-class versions at the large dataset
// (paper Figure 2b).
func BenchmarkFig2b(b *testing.B) { benchArch(b, registry.GPU, largeProxyN) }

// BenchmarkTableIII measures the full portability-analysis pipeline: model
// every version on every machine at 4000^2 and reduce to Pennycook scores
// (paper Table III).
func BenchmarkTableIII(b *testing.B) {
	families := map[string][]string{
		"Manual": {"manual-omp", "manual-mpi", "manual-mpi-omp", "manual-openacc-cpu", "manual-cuda", "manual-openacc-gpu"},
		"OPS":    {"ops-openmp", "ops-mpi", "ops-mpi-omp", "ops-mpi-tiled", "ops-cuda", "ops-openacc"},
		"Kokkos": {"kokkos-openmp", "kokkos-cuda"},
		"RAJA":   {"raja-openmp", "raja-cuda"},
	}
	platforms := []string{"xeon", "knl", "p100"}
	var sink float64
	for i := 0; i < b.N; i++ {
		w := perfmodel.BM(4000)
		times := map[string]map[string]float64{}
		for fam, versions := range families {
			times[fam] = map[string]float64{}
			for _, vname := range versions {
				for _, m := range perfmodel.Machines() {
					if !perfmodel.Supported(vname, m.ID) {
						continue
					}
					est, err := perfmodel.Time(vname, m, w)
					if err != nil {
						b.Fatal(err)
					}
					key := string(m.ID)
					if cur, ok := times[fam][key]; !ok || est.Seconds < cur {
						times[fam][key] = est.Seconds
					}
				}
			}
		}
		effs := portability.AppEfficiencies(times, platforms)
		for _, fam := range []string{"Manual", "OPS", "Kokkos", "RAJA"} {
			sink += portability.Pennycook(effs[fam])
		}
	}
	if sink <= 0 {
		b.Fatal("portability pipeline produced nothing")
	}
	b.ReportMetric(sink/float64(4*b.N), "mean-P")
}

// BenchmarkOPSTiling is the tiling ablation: the PPCG inner steps form the
// long reduction-free loop chains the OPS lazy tiling pass targets.
func BenchmarkOPSTiling(b *testing.B) {
	cases := []struct {
		name string
		opt  opsport.Options
	}{
		{"untiled", opsport.Options{Backend: ops.BackendSerial, Name: "ops-serial"}},
		{"tiled-64x16", opsport.Options{Backend: ops.BackendSerial, Tiling: true, TileX: 64, TileY: 16, Name: "ops-tiled"}},
		{"tiled-128x32", opsport.Options{Backend: ops.BackendSerial, Tiling: true, TileX: 128, TileY: 32, Name: "ops-tiled"}},
		{"tiled-256x64", opsport.Options{Backend: ops.BackendSerial, Tiling: true, TileX: 256, TileY: 64, Name: "ops-tiled"}},
	}
	cfg := config.BenchmarkN(largeProxyN)
	cfg.EndStep = 1
	cfg.Solver = config.SolverPPCG
	cfg.PPCGInnerSteps = 16
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, err := opsport.New(c.opt)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				_, err = driver.Run(cfg, p, solver.New(solver.FromConfig(&cfg)), nil)
				b.StopTimer()
				st := p.TilingSnapshot()
				p.Close()
				b.StartTimer()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.Tiles), "tiles")
			}
		})
	}
}

// BenchmarkBlockSize sweeps the CUDA kernel block size (the paper fixes
// OPS CUDA at 64x8 after the same sweep).
func BenchmarkBlockSize(b *testing.B) {
	blocks := []simgpu.Dim2{{X: 8, Y: 1}, {X: 16, Y: 4}, {X: 32, Y: 4}, {X: 64, Y: 8}, {X: 128, Y: 8}, {X: 512, Y: 2}}
	cfg := config.BenchmarkN(smallProxyN)
	cfg.EndStep = 1
	v, err := registry.Get("manual-cuda")
	if err != nil {
		b.Fatal(err)
	}
	for _, blk := range blocks {
		blk := blk
		b.Run(blockName(blk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k, err := v.Make(registry.Params{Block: blk})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				_, err = driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
				b.StopTimer()
				k.Close()
				b.StartTimer()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func blockName(d simgpu.Dim2) string {
	return string(rune('0'+d.X/100%10)) + string(rune('0'+d.X/10%10)) + string(rune('0'+d.X%10)) +
		"x" + string(rune('0'+d.Y/10%10)) + string(rune('0'+d.Y%10))
}

// BenchmarkCGIteration measures the CG hot path per iteration across the
// ports (make bench-cg). The deck is diagonal-preconditioned CG at 256^2,
// where every port's one-sweep CGCalcW and CGCalcUR make an iteration three
// full-field sweeps.
func BenchmarkCGIteration(b *testing.B) {
	versions := []string{
		"manual-serial", "manual-omp", "manual-mpi", "manual-cuda",
		"ops-openmp", "kokkos-openmp", "raja-openmp",
	}
	for _, name := range versions {
		name := name
		b.Run(name, func(b *testing.B) { benchCGIteration(b, name, 0) })
	}
}

// BenchmarkSDCOverhead measures the cost of the solver's silent-data-
// corruption monitor at its recommended cadence: the same pinned
// 50-iteration CG solve as BenchmarkCGIteration, with
// SDCCheckEvery set to solver.DefaultSDCCheckEvery so the monitored arm
// pays one periodic true-residual recompute (halo + CalcResidual + one
// reduction) per solve. Compare ns/cg-iter against BenchmarkCGIteration;
// the acceptance budget is <5% overhead (make bench-sdc).
func BenchmarkSDCOverhead(b *testing.B) {
	for _, name := range []string{"manual-serial", "manual-omp"} {
		name := name
		b.Run(name+"/monitored", func(b *testing.B) {
			benchCGIteration(b, name, solver.DefaultSDCCheckEvery)
		})
		b.Run(name+"/baseline", func(b *testing.B) {
			benchCGIteration(b, name, 0)
		})
	}
}

func benchCGIteration(b *testing.B, version string, sdcEvery int) {
	b.Helper()
	const iters = 50
	cfg := config.BenchmarkN(largeProxyN)
	cfg.Preconditioner = config.PrecondJacDiag
	cfg.MaxIters = iters
	cfg.Eps = 1e-300 // unreachable: every solve runs exactly MaxIters iterations
	v, err := registry.Get(version)
	if err != nil {
		b.Fatal(err)
	}
	k, err := v.Make(registry.Params{})
	if err != nil {
		b.Fatal(err)
	}
	defer k.Close()
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err != nil {
		b.Fatal(err)
	}
	if err := k.Generate(m, cfg.States); err != nil {
		b.Fatal(err)
	}
	k.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy0}, 2)
	k.SetField()
	k.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy1}, 2)
	dt := cfg.InitialTimestep
	rx, ry := dt/(m.Dx*m.Dx), dt/(m.Dy*m.Dy)
	opt := solver.FromConfig(&cfg)
	opt.SDCCheckEvery = sdcEvery
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k.SolveInit(cfg.Coefficient, rx, ry, cfg.Preconditioner)
		b.StartTimer()
		st, err := solver.Solve(k, opt)
		if err != nil {
			b.Fatal(err)
		}
		if st.Iterations != iters {
			b.Fatalf("solve ran %d iterations, want %d", st.Iterations, iters)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "ns/cg-iter")
}

// BenchmarkSolvers compares the four solvers on the reference port, the
// solver study the mini-app exists for.
func BenchmarkSolvers(b *testing.B) {
	kinds := []config.SolverKind{config.SolverCG, config.SolverChebyshev, config.SolverPPCG, config.SolverJacobi}
	for _, kind := range kinds {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			cfg := config.BenchmarkN(smallProxyN)
			cfg.EndStep = 1
			cfg.Solver = kind
			if kind == config.SolverJacobi {
				cfg.Eps = 1e-10
				cfg.MaxIters = 200000
			}
			for i := 0; i < b.N; i++ {
				res, err := tealeaf.Run(cfg, tealeaf.Options{Version: "manual-serial"})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalIterations), "solver-iters")
			}
		})
	}
}
